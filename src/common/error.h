/**
 * @file
 * Structured error hierarchy for library code paths.
 *
 * The repo's error-handling contract (DESIGN.md §13) splits failures
 * three ways:
 *
 *   - panic()   — internal invariant violations (simulator bugs);
 *                 aborts, never caught.
 *   - fatal()   — process-level user errors hit before any sweep runs
 *                 (malformed env knobs, bad CLI flags); exits.
 *   - SimError  — per-job / per-resource failures inside library code
 *                 that a batched caller may want to survive: a trace
 *                 too long to index, an illegal CoreConfig. These
 *                 *throw* so SweepRunner can isolate the failing job
 *                 and record the outcome instead of the whole sweep
 *                 dying with it. (Store I/O failures do not throw: the
 *                 stores are caches, and a failed publish or read-back
 *                 is a miss.)
 *
 * Every SimError carries a `site` — the failing component, dotted
 * (e.g. "config.validate", "interp.trace_limit") — so failure records in
 * BENCH_*.json name where a job died, not just why.
 */

#ifndef NOREBA_COMMON_ERROR_H
#define NOREBA_COMMON_ERROR_H

#include <stdexcept>
#include <string>
#include <utility>

namespace noreba {

/** Base of all recoverable simulator errors. */
class SimError : public std::runtime_error
{
  public:
    SimError(std::string site, const std::string &what)
        : std::runtime_error(what), site_(std::move(site))
    {
    }

    /** The failing component, dotted (e.g. "config.validate"). */
    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/** The site of @p e when it is a SimError, else @p fallback. */
inline std::string
errorSite(const std::exception &e, const char *fallback)
{
    if (const auto *sim = dynamic_cast<const SimError *>(&e))
        return sim->site();
    return fallback;
}

} // namespace noreba

#endif // NOREBA_COMMON_ERROR_H
