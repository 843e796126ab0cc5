/**
 * @file
 * Scoped test environment. The FVC_* knobs are read on every call,
 * so tests set them in-process; these guards restore the old
 * environment, and remove a test's scratch directory, on scope exit,
 * also when an assertion returns early.
 */

#ifndef FVC_TESTS_ENV_GUARD_HH_
#define FVC_TESTS_ENV_GUARD_HH_

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

namespace fvc::test {

/** Sets one variable (unsets it for nullptr) until scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ScopedEnv(const char *name, const std::string &value)
        : ScopedEnv(name, value.c_str())
    {
    }

    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> old_;
};

/** Clears every FVC_* variable until scope exit, then restores the
 * set that was in force. Tests set knobs inside with set()/unset(). */
class EnvGuard
{
  public:
    EnvGuard() : saved_(clearKnobs()) {}

    ~EnvGuard()
    {
        clearKnobs();
        for (const auto &[name, value] : saved_)
            ::setenv(name.c_str(), value.c_str(), 1);
    }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

    static void
    set(const char *name, const std::string &value)
    {
        ::setenv(name, value.c_str(), 1);
    }

    static void unset(const char *name) { ::unsetenv(name); }

  private:
    using Vars = std::vector<std::pair<std::string, std::string>>;

    /** Unset every FVC_* variable; returns those that were set. */
    static Vars
    clearKnobs()
    {
        Vars knobs;
        for (char **env = environ; *env; ++env) {
            const char *eq = std::strchr(*env, '=');
            if (eq && std::strncmp(*env, "FVC_", 4) == 0)
                knobs.emplace_back(std::string(*env, eq - *env), eq + 1);
        }
        for (const auto &knob : knobs)
            ::unsetenv(knob.first.c_str());
        return knobs;
    }

    Vars saved_;
};

/** A unique scratch directory, removed with its contents on scope
 * exit. */
class TempDir
{
  public:
    TempDir()
    {
        static int counter = 0;
        path_ = std::filesystem::temp_directory_path() /
                ("fvc-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(counter++));
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::filesystem::path &path() const { return path_; }

    std::string
    file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

} // namespace fvc::test

#endif // FVC_TESTS_ENV_GUARD_HH_
