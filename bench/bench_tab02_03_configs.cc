/**
 * @file
 * Tables 2 and 3: the system configuration and the three baseline
 * microarchitectures, printed from the live CoreConfig factories so
 * the documented configuration is exactly what the experiments
 * simulate.
 */

#include <cstdio>
#include <string>

#include "common/table.h"
#include "experiments.h"
#include "isa/setup_encoding.h"

namespace noreba::bench {

void
registerTab0203Configs()
{
    ExperimentSpec spec;
    spec.name = "tab02_03_configs";
    spec.title = "Tables 2 & 3 (system configuration)";
    spec.description = "Printed from the CoreConfig factories used by "
                       "every experiment";

    spec.report = [](const ExperimentResults &) {
        CoreConfig skl = skylakeConfig();
        std::printf("Table 2: system configuration\n");
        TextTable t2;
        t2.setHeader({"parameter", "value"});
        auto kb = [](int bytes) {
            return std::to_string(bytes / 1024) + "KB";
        };
        auto cache = [&kb](const CacheConfig &c) {
            return kb(c.sizeBytes) + ", " + std::to_string(c.latency) +
                   "clk";
        };
        t2.addRow({"L1d", cache(L1D_CACHE)});
        t2.addRow({"L1i", cache(L1I_CACHE)});
        t2.addRow({"L2", cache(L2_CACHE)});
        t2.addRow({"L3", cache(L3_CACHE)});
        t2.addRow({"Dispatch/Issue/Commit width",
                   std::to_string(DISPATCH_WIDTH) + "/" +
                       std::to_string(ISSUE_WIDTH) + "/" +
                       std::to_string(skl.commitWidth)});
        t2.addRow({"Branch predictor",
                   "TAGE (4 tagged tables, scaled-down TAGE-SC-L-8KB)"});
        t2.addRow({"Prefetcher", skl.prefetcher ? "DCPT" : "none"});
        t2.addRow({"ROB' entries", "baseline core ROB (" +
                                       std::to_string(skl.robEntries) +
                                       ")"});
        t2.addRow({"BR-CQs entries",
                   std::to_string(skl.srob.numBrCqs) + " x " +
                       std::to_string(skl.srob.brCqEntries) +
                       "-entries"});
        t2.addRow({"PR-CQ entries",
                   std::to_string(skl.srob.prCqEntries) + "-entries"});
        t2.addRow({"BIT/CQT entries",
                   std::to_string(NUM_BRANCH_IDS)});
        t2.addRow({"CIT entries", std::to_string(skl.srob.citEntries)});
        std::printf("%s\n", t2.render().c_str());

        std::printf(
            "Table 3: baseline microarchitecture configurations\n");
        TextTable t3;
        t3.setHeader({"microarchitecture", "ROB", "IQ", "LQ/SQ", "RF"});
        for (const char *name : {"NHM", "HSW", "SKL"}) {
            CoreConfig cfg = configByName(name);
            std::string full = std::string(
                name == std::string("NHM")   ? "Nehalem-like (NHM)"
                : name == std::string("HSW") ? "Haswell-like (HSW)"
                                             : "Skylake-like (SKL)");
            t3.addRow({full, std::to_string(cfg.robEntries),
                       std::to_string(cfg.iqEntries),
                       std::to_string(cfg.lqEntries) + "/" +
                           std::to_string(cfg.sqEntries),
                       std::to_string(cfg.rfEntries)});
        }
        std::printf("%s\n", t3.render().c_str());
    };

    registerExperiment(std::move(spec));
}

} // namespace noreba::bench
