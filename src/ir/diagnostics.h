/**
 * @file
 * Machine-readable diagnostics for static checks: every rule of the
 * IR verifier (ir/verifier.h) and of the annotation checker
 * (analysis/annotation_checker.h) reports its results as Findings — a
 * severity, a stable kebab-case rule id, a source location inside the
 * Program (block/instruction), and a human message — collected into a
 * Diagnostics sink that renders either as text (for terminals and
 * gtest failure messages) or as JSON (for CI artifacts), reusing the
 * bench JSON writer in common/json.h.
 */

#ifndef NOREBA_IR_DIAGNOSTICS_H
#define NOREBA_IR_DIAGNOSTICS_H

#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace noreba {

/** How bad a finding is. Errors fail verification (non-zero exit). */
enum class Severity { Note, Warning, Error };

const char *severityName(Severity s);

/** Where inside a Program a finding points. */
struct SourceLoc
{
    int block = -1;          //!< basic-block id (-1 = whole program)
    std::string blockLabel;  //!< label of that block ("" = none)
    int instIdx = -1;        //!< instruction index within the block

    std::string toString() const;
};

/** One verifier/checker result. */
struct Finding
{
    Severity severity = Severity::Error;
    std::string rule;     //!< stable kebab-case rule id
    SourceLoc loc;
    std::string message;

    std::string toString() const;
};

/**
 * Finding sink for one verification run. Rules append; renderers and
 * the CLI consume. Counts are tracked per severity and per rule id.
 *
 * Reports are deterministic: add() drops findings identical to one
 * already recorded (same severity, rule, location, and message), and
 * both renderers emit findings stable-sorted by (rule, location)
 * rather than in insertion order, so two analysis runs that discover
 * the same facts in different orders produce byte-identical output.
 */
class Diagnostics
{
  public:
    /** Name of the unit under analysis (program name), for renderers. */
    explicit Diagnostics(std::string unit = "") : unit_(std::move(unit)) {}

    const std::string &unit() const { return unit_; }

    void add(Severity severity, const std::string &rule,
             const SourceLoc &loc, const std::string &message);

    void error(const std::string &rule, const SourceLoc &loc,
               const std::string &message)
    {
        add(Severity::Error, rule, loc, message);
    }
    void warning(const std::string &rule, const SourceLoc &loc,
                 const std::string &message)
    {
        add(Severity::Warning, rule, loc, message);
    }
    void note(const std::string &rule, const SourceLoc &loc,
              const std::string &message)
    {
        add(Severity::Note, rule, loc, message);
    }

    const std::vector<Finding> &findings() const { return findings_; }

    /** Findings stable-sorted by (rule, location), for renderers. */
    std::vector<Finding> sortedFindings() const;

    int errorCount() const { return errors_; }
    int warningCount() const { return warnings_; }

    /** True if any finding (any severity) carries this rule id. */
    bool hasRule(const std::string &rule) const;

    /** One-line verdict: "clean" or "N error(s), M warning(s)". */
    std::string verdict() const;

    /** Human renderer: one line per finding plus the verdict. */
    std::string toText() const;

    /**
     * JSON renderer: {"unit", "errors", "warnings", "notes",
     * "byRule": {...}, "findings": [{severity, rule, block, blockLabel,
     * inst, message}...]}.
     */
    JsonValue toJson() const;

  private:
    std::string unit_;
    std::vector<Finding> findings_;
    std::map<std::string, int> byRule_;
    int errors_ = 0;
    int warnings_ = 0;
    int notes_ = 0;
};

} // namespace noreba

#endif // NOREBA_IR_DIAGNOSTICS_H
