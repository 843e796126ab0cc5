/**
 * @file
 * AdaptiveDmcFvcSystem: a DMC + FVC whose frequent value set is
 * learned online instead of supplied by an offline profiling run.
 *
 * Section 2 of the paper shows the top accessed values stabilize
 * early ("Finding frequently accessed values", Table 3) and
 * proposes profiling to find them. This extension closes the loop:
 * a bounded Space-Saving sketch watches the access stream; after a
 * warmup window the sketch's heavy hitters become the FVC's value
 * set, and the set can optionally be re-derived periodically (the
 * FVC is flushed on each retrain, since codes change meaning).
 */

#ifndef FVC_CORE_ADAPTIVE_SYSTEM_HH_
#define FVC_CORE_ADAPTIVE_SYSTEM_HH_

#include "core/dmc_fvc_system.hh"
#include "profiling/value_table.hh"

namespace fvc::core {

/** Online-training policy. */
struct AdaptiveTrainPolicy
{
    /** Accesses observed before the first value set is installed.
     * During warmup the FVC holds a sentinel set and stays cold. */
    uint64_t warmup_accesses = 65536;
    /** Counters in the Space-Saving sketch. */
    size_t sketch_counters = 64;
    /** Re-derive the value set every this many accesses after
     * warmup (0 = train once). */
    uint64_t retrain_interval = 0;
};

/** Per-training-event statistics. */
struct AdaptiveStats
{
    uint64_t trainings = 0;
    uint64_t last_training_access = 0;
};

/** The self-training DMC + FVC organization. */
class AdaptiveDmcFvcSystem final : public cache::CacheSystem
{
  public:
    AdaptiveDmcFvcSystem(const cache::CacheConfig &dmc_config,
                         const FvcConfig &fvc_config,
                         AdaptiveTrainPolicy train_policy = {},
                         DmcFvcPolicy fvc_policy = {});

    cache::AccessResult access(const trace::MemRecord &rec) override;
    void flush() override { inner_.flush(); }
    const cache::CacheStats &stats() const override
    {
        return inner_.stats();
    }
    std::string describe() const override;
    memmodel::FunctionalMemory &memoryImage() override
    {
        return inner_.memoryImage();
    }

    const DmcFvcSystem &inner() const { return inner_; }
    DmcFvcSystem &inner() { return inner_; }
    const AdaptiveStats &adaptiveStats() const { return astats_; }

    /** The currently installed frequent values (rank order). */
    std::vector<Word> currentValues() const;

  private:
    AdaptiveTrainPolicy policy_;
    DmcFvcSystem inner_;
    profiling::SpaceSavingSketch sketch_;
    AdaptiveStats astats_;
    uint64_t accesses_ = 0;
    bool trained_ = false;

    void train();
};

} // namespace fvc::core

#endif // FVC_CORE_ADAPTIVE_SYSTEM_HH_
