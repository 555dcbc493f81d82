#include "sim/runner.h"

#include <utility>

#include "common/logging.h"
#include "interp/interpreter.h"
#include "sim/trace_store.h"
#include "uarch/branch_predictor.h"
#include "uarch/core.h"

namespace noreba {

TraceView
TraceBundle::view() const
{
    return mapped ? mapped->view() : TraceView(trace);
}

const std::vector<uint8_t> &
TraceBundle::mispredictions() const
{
    return mapped ? mapped->misp() : misp;
}

/**
 * Remove setup records, remapping every guardIdx to the stripped
 * numbering. Guards always reference non-setup records (branches), so
 * the remap is total. The static table is copied whole: entries only
 * setup records used stay unreferenced.
 */
DynamicTrace
stripSetupRecords(const TraceView &in)
{
    const TraceSummary &sum = in.summary();
    DynamicTrace out;
    out.name = in.name();
    out.dynInsts = sum.dynInsts;
    out.setupInsts = 0;
    out.branches = sum.branches;
    out.takenBranches = sum.takenBranches;
    out.loads = sum.loads;
    out.stores = sum.stores;
    out.truncated = sum.truncated;
    out.statics.assign(in.statics(), in.statics() + in.numStatics());

    std::vector<TraceIdx> remap(in.size(), TRACE_NONE);
    out.dyn.reserve(in.size() - sum.setupInsts);
    for (size_t i = 0; i < in.size(); ++i) {
        const DynRecord &rec = in.dyn()[i];
        if (isSetup(out.statics[rec.staticId()].op))
            continue;
        remap[i] = static_cast<TraceIdx>(out.dyn.size());
        out.dyn.push_back(rec);
    }
    for (DynRecord &rec : out.dyn) {
        if (rec.guardIdx >= 0) {
            TraceIdx g = remap[static_cast<size_t>(rec.guardIdx)];
            panic_if(g == TRACE_NONE,
                     "guard points at a setup record");
            rec.guardIdx = g;
        }
    }
    return out;
}

TraceBundle
prepareTrace(const std::string &workload, const TraceOptions &opts)
{
    TraceBundle bundle;
    bundle.workload = workload;
    bundle.opts = opts;

    Program prog = buildWorkload(workload, opts.params);
    if (opts.annotate)
        bundle.pass = runBranchDependencePass(prog);

    {
        // The interpreter adopts the program's data as its memory
        // image; both go before the rest of the build.
        Interpreter interp(std::move(prog));
        InterpOptions io;
        io.maxDynInsts = opts.maxDynInsts;
        bundle.trace = interp.run(io);
        bundle.checksum = interp.regChecksum();
    }

    if (opts.stripSetups)
        bundle.trace = stripSetupRecords(bundle.trace);

    bundle.misp = precomputeMispredictions(bundle.trace);
    return bundle;
}

CoreStats
simulate(const CoreConfig &cfg, const TraceBundle &bundle,
         CoreObserver *observer)
{
    validateConfig(cfg);
    Core core(cfg, bundle.view(), bundle.mispredictions());
    core.observe(observer);
    return core.run();
}

} // namespace noreba
