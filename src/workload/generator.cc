#include "workload/generator.hh"

#include "util/logging.hh"

namespace fvc::workload {

/**
 * Private engine: owns the functional memory, kernels, pools, and
 * the record queue, and implements the Emitter interface kernels
 * write through.
 */
class SyntheticWorkload::Impl : public Emitter
{
  public:
    Impl(const BenchmarkProfile &profile, uint64_t target,
         uint64_t seed)
        : profile_(profile), target_(target), rng_(seed)
    {
        fvc_assert(!profile.kernels.empty(),
                   "profile has no kernels: ", profile.name);
        fvc_assert(!profile.phases.empty(),
                   "profile has no phases: ", profile.name);

        std::vector<double> weights;
        for (const auto &spec : profile.kernels) {
            weights.push_back(spec.weight);
            kernels_.push_back(buildKernel(spec));
        }
        picker_ = std::make_unique<util::DiscreteSampler>(weights);

        for (const auto &phase : profile.phases)
            pools_.emplace_back(phase.pool);

        // Preload phase: kernels build their data structures in the
        // functional memory without emitting trace records — the
        // equivalent of a program's pre-existing data/heap segments
        // at the point tracing begins.
        preload_mode_ = true;
        for (auto &k : kernels_)
            k->init(*this);
        preload_mode_ = false;
        initial_image_ =
            std::make_unique<memmodel::FunctionalMemory>(memory_);
    }

    // Emitter interface -------------------------------------------------

    Word
    load(Addr addr) override
    {
        Word v = memory_.readReferenced(addr);
        if (!preload_mode_)
            emit({trace::Op::Load, addr, v, advance()});
        return v;
    }

    void
    store(Addr addr, Word value) override
    {
        memory_.write(addr, value);
        if (!preload_mode_)
            emit({trace::Op::Store, addr, value, advance()});
    }

    void
    alloc(Addr base, uint64_t bytes) override
    {
        memory_.allocRegion(base, bytes);
        if (!preload_mode_)
            emit({trace::Op::Alloc, base, static_cast<Word>(bytes),
                  icount_});
    }

    void
    free(Addr base, uint64_t bytes) override
    {
        memory_.freeRegion(base, bytes);
        if (!preload_mode_)
            emit({trace::Op::Free, base, static_cast<Word>(bytes),
                  icount_});
    }

    Word peek(Addr addr) const override { return memory_.read(addr); }

    ValuePool &
    pool() override
    {
        double progress = target_ == 0
            ? 1.0
            : static_cast<double>(emitted_accesses_) /
                  static_cast<double>(target_);
        for (size_t i = 0; i < pools_.size(); ++i) {
            if (progress < profile_.phases[i].until)
                return pools_[i];
        }
        return pools_.back();
    }

    util::Rng &rng() override { return rng_; }

    double
    mutateFraction() const override
    {
        return profile_.mutate_fraction;
    }

    // Stream pump -------------------------------------------------------

    bool
    next(trace::MemRecord &out)
    {
        while (queue_.empty()) {
            if (emitted_accesses_ >= target_)
                return false;
            const uint32_t which = picker_->sample(rng_);
            kernels_[which]->step(*this);
        }
        out = queue_.front();
        queue_.pop_front();
        return true;
    }

    const memmodel::FunctionalMemory &memory() const { return memory_; }
    const memmodel::FunctionalMemory &
    initialImage() const
    {
        return *initial_image_;
    }
    uint64_t icount() const { return icount_; }

  private:
    BenchmarkProfile profile_;
    uint64_t target_;
    util::Rng rng_;
    memmodel::FunctionalMemory memory_;
    std::vector<std::unique_ptr<Kernel>> kernels_;
    std::unique_ptr<util::DiscreteSampler> picker_;
    std::vector<ValuePool> pools_;
    std::deque<trace::MemRecord> queue_;
    std::unique_ptr<memmodel::FunctionalMemory> initial_image_;
    bool preload_mode_ = false;
    uint64_t icount_ = 0;
    uint64_t emitted_accesses_ = 0;

    uint64_t
    advance()
    {
        // A memory access every ~instructions_per_access
        // instructions, jittered to avoid lockstep artifacts.
        uint64_t gap = 1 + rng_.below(static_cast<uint64_t>(
            2.0 * profile_.instructions_per_access - 1.0) + 1);
        icount_ += gap;
        return icount_;
    }

    void
    emit(const trace::MemRecord &rec)
    {
        if (rec.isAccess())
            ++emitted_accesses_;
        queue_.push_back(rec);
    }

    static std::unique_ptr<Kernel>
    buildKernel(const KernelSpec &spec)
    {
        return std::visit(
            [](const auto &params) -> std::unique_ptr<Kernel> {
                using T = std::decay_t<decltype(params)>;
                if constexpr (std::is_same_v<T, HotSpotParams>)
                    return std::make_unique<HotSpotKernel>(params);
                else if constexpr (std::is_same_v<T, ScanParams>)
                    return std::make_unique<ScanKernel>(params);
                else if constexpr (std::is_same_v<T, ConflictParams>)
                    return std::make_unique<ConflictKernel>(params);
                else if constexpr (std::is_same_v<T,
                                                  PointerChaseParams>)
                    return std::make_unique<PointerChaseKernel>(
                        params);
                else if constexpr (std::is_same_v<T, StackParams>)
                    return std::make_unique<StackKernel>(params);
                else
                    return std::make_unique<CounterStreamKernel>(
                        params);
            },
            spec.params);
    }
};

SyntheticWorkload::SyntheticWorkload(const BenchmarkProfile &profile,
                                     uint64_t accesses, uint64_t seed)
    : impl_(std::make_unique<Impl>(
          profile, accesses ? accesses : profile.default_accesses,
          seed))
{
}

SyntheticWorkload::~SyntheticWorkload() = default;

bool
SyntheticWorkload::next(trace::MemRecord &out)
{
    return impl_->next(out);
}

const memmodel::FunctionalMemory &
SyntheticWorkload::memory() const
{
    return impl_->memory();
}

const memmodel::FunctionalMemory &
SyntheticWorkload::initialImage() const
{
    return impl_->initialImage();
}

uint64_t
SyntheticWorkload::currentIcount() const
{
    return impl_->icount();
}

} // namespace fvc::workload
