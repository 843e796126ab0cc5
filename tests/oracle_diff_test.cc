/**
 * @file
 * Differential parity: the protocol-literal oracle must agree
 * bit-for-bit with every production replay path — serial
 * DmcFvcSystem, the single-pass lane kernel at its scalar and its
 * best ISA level, and the mmap-backed warm store replay — over all
 * 18 modelled SPEC95 profiles.
 */

#include <gtest/gtest.h>

#include "oracle/diff_runner.hh"
#include "workload/profile.hh"

namespace {

using namespace fvc;

constexpr uint64_t kAccesses = 10000;

/** The paper's geometry: 16KB/32B/1-way DMC + 512-entry 3-bit FVC
 * (the structs' defaults). */
oracle::DiffCell
paperCell()
{
    return {};
}

void
expectParity(const workload::BenchmarkProfile &profile,
             const oracle::DiffCell &cell)
{
    SCOPED_TRACE(profile.name);
    harness::PreparedTrace trace =
        harness::prepareTrace(profile, kAccesses, 1, 10);
    oracle::DiffRunner runner("oracle_diff");
    for (oracle::Path path : oracle::allPaths()) {
        auto divergence = runner.runPath(trace, cell, path);
        if (divergence) {
            ADD_FAILURE()
                << oracle::pathName(path)
                << " diverged from the oracle on field "
                << divergence->field << "\n"
                << divergence->report;
        }
    }
}

TEST(OracleDiffTest, SpecIntProfilesAllPaths)
{
    for (workload::SpecInt bench : workload::allSpecInt())
        expectParity(workload::specIntProfile(bench), paperCell());
}

TEST(OracleDiffTest, SpecFpProfilesAllPaths)
{
    for (const std::string &name : workload::allSpecFpNames())
        expectParity(workload::specFpProfile(name), paperCell());
}

// Off-default coordinates: the oracle's parity must not depend on
// the paper geometry or the default policy.
TEST(OracleDiffTest, NonDefaultGeometryAndPolicy)
{
    oracle::DiffCell cell;
    cell.dmc.size_bytes = 4 * 1024;
    cell.dmc.line_bytes = 16;
    cell.dmc.assoc = 2;
    cell.dmc.replacement = cache::Replacement::Random;
    cell.fvc.entries = 64;
    cell.fvc.line_bytes = 16;
    cell.fvc.code_bits = 2;
    cell.fvc.assoc = 2;
    cell.policy.skip_barren_insertions = false;
    cell.policy.occupancy_sample_interval = 128;

    expectParity(
        workload::specIntProfile(workload::SpecInt::Gcc126), cell);
    expectParity(workload::specFpProfile("102.swim"), cell);
}

// Write allocation off: the protocol's "second situation" disabled.
TEST(OracleDiffTest, WriteAllocateDisabled)
{
    oracle::DiffCell cell;
    cell.policy.write_allocate_frequent = false;
    expectParity(
        workload::specIntProfile(workload::SpecInt::M88ksim124),
        cell);
}

} // namespace
