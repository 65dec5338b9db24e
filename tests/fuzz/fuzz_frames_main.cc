/**
 * @file
 * Standalone corruption fuzzer over the DXP1 frame decoder and body
 * parsers.
 *
 *     dynex_fuzz_frames [seed] [iterations] [frames|bodies]
 *
 * Mirrors dynex_fuzz_corruption: the same deterministic mutation
 * engine, aimed at the server's wire protocol instead of the trace
 * readers. `frames` (the default) mutates whole frames; `bodies`
 * mutates message bodies and frames them again with valid CRCs, so
 * every mutant reaches its body parser. Exits nonzero when any
 * mutation crashes the process or fails with a code other than
 * CorruptInput or ResourceLimit. Registered in ctest as
 * `fuzz_frames_smoke` and `fuzz_bodies_smoke` with a fixed seed;
 * useful standalone under the sanitizer presets for longer campaigns.
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "../robustness/frame_fuzzer.h"

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1992;
    std::uint64_t iterations = 20000;
    if (argc > 1)
        seed = std::strtoull(argv[1], nullptr, 10);
    if (argc > 2)
        iterations = std::strtoull(argv[2], nullptr, 10);
    const bool bodies = argc > 3 && std::strcmp(argv[3], "bodies") == 0;
    if (argc > 3 && !bodies && std::strcmp(argv[3], "frames") != 0) {
        std::cerr << "dynex_fuzz_frames: mode must be frames or bodies\n";
        return 2;
    }

    const auto report = dynex::test::runFrameFuzzer(
        seed, iterations,
        bodies ? dynex::test::FrameFuzzMode::Bodies
               : dynex::test::FrameFuzzMode::Frames);
    std::cout << (bodies ? "body" : "frame") << " fuzzer: seed " << seed
              << ", " << report.iterations << " iterations, "
              << report.cleanSuccesses << " clean, "
              << report.structuredErrors << " structured errors ("
              << report.bodyErrors << " from body parsers), "
              << report.violations.size() << " violations\n";
    for (const auto &violation : report.violations)
        std::cerr << "VIOLATION: " << violation << "\n";
    return report.ok() ? 0 : 1;
}
