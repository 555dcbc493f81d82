#include "uarch/config.h"

#include <charconv>

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"

namespace noreba {

const char *
commitModeName(CommitMode mode)
{
    switch (mode) {
      case CommitMode::InOrder: return "InO-C";
      case CommitMode::NonSpecOoO: return "NonSpeculative-OoO-C";
      case CommitMode::Noreba: return "Noreba";
      case CommitMode::IdealReconv: return "Reconvergence-OoO-C";
      case CommitMode::SpeculativeBR: return "SpeculativeBR-OoO-C";
      case CommitMode::SpeculativeFull: return "Speculative-OoO-C";
      case CommitMode::ValidationBuffer: return "ValidationBuffer";
      default: return "?";
    }
}

/**
 * Tripwire for fields silently left out of NOREBA_CORE_CONFIG_FIELDS:
 * adding a member to CoreConfig (or its nested structs) changes its
 * size, failing this assert until the table — and this constant — are
 * updated together. Layout is ABI-specific, so the check only runs on
 * the 64-bit libstdc++ builds CI uses.
 */
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(CoreConfig) ==
                  sizeof(std::string) + sizeof(SelectiveRobConfig) +
                      7 * sizeof(int) + sizeof(CommitMode) +
                      4 * sizeof(bool) + /* padding */ 8,
              "CoreConfig changed: update NOREBA_CORE_CONFIG_FIELDS "
              "(uarch/config.h) and this tripwire together");
#endif

void
validateConfig(const CoreConfig &c)
{
#define NOREBA_CFG_NONE(f)
#define NOREBA_CFG_I(f, min)                                              \
    if (c.f < (min))                                                      \
        throw SimError("config.validate",                                 \
                       "config field " #f " = " + std::to_string(c.f) +   \
                           " is below its minimum " #min);
    NOREBA_CORE_CONFIG_FIELDS(NOREBA_CFG_NONE, NOREBA_CFG_I,
                              NOREBA_CFG_NONE, NOREBA_CFG_NONE)
#undef NOREBA_CFG_NONE
#undef NOREBA_CFG_I
}

std::vector<ConfigFieldRef>
configFieldRefs(CoreConfig &c)
{
    std::vector<ConfigFieldRef> out;
#define NOREBA_CFG_S(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Str, &c.f, nullptr,          \
                   nullptr, nullptr});
#define NOREBA_CFG_I(f, min)                                              \
    out.push_back({#f, ConfigFieldRef::Kind::Int, nullptr, &c.f,          \
                   nullptr, nullptr});
#define NOREBA_CFG_B(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Bool, nullptr, nullptr,      \
                   &c.f, nullptr});
#define NOREBA_CFG_M(f)                                                   \
    out.push_back({#f, ConfigFieldRef::Kind::Mode, nullptr, nullptr,      \
                   nullptr, &c.f});
    NOREBA_CORE_CONFIG_FIELDS(NOREBA_CFG_S, NOREBA_CFG_I, NOREBA_CFG_B,
                              NOREBA_CFG_M)
#undef NOREBA_CFG_S
#undef NOREBA_CFG_I
#undef NOREBA_CFG_B
#undef NOREBA_CFG_M
    return out;
}

void
serializeConfig(const CoreConfig &cfg, std::string &out)
{
    char num[16];
#define NOREBA_CFG_S(f)                                                   \
    panic_if(cfg.f.find('\n') != std::string::npos ||                    \
                 cfg.f.find('=') != std::string::npos,                    \
             "config field %s value \"%s\" cannot serialize "             \
             "canonically", #f, cfg.f.c_str());                           \
    out += #f "=";                                                        \
    out += cfg.f;                                                         \
    out += '\n';
#define NOREBA_CFG_I(f, min)                                              \
    out += #f "=";                                                        \
    out.append(num, std::to_chars(num, num + sizeof(num), cfg.f).ptr);    \
    out += '\n';
#define NOREBA_CFG_B(f) out += cfg.f ? #f "=1\n" : #f "=0\n";
#define NOREBA_CFG_M(f)                                                   \
    out += #f "=";                                                        \
    out += commitModeName(cfg.f);                                         \
    out += '\n';
    NOREBA_CORE_CONFIG_FIELDS(NOREBA_CFG_S, NOREBA_CFG_I, NOREBA_CFG_B,
                              NOREBA_CFG_M)
#undef NOREBA_CFG_S
#undef NOREBA_CFG_I
#undef NOREBA_CFG_B
#undef NOREBA_CFG_M
}

std::string
serializeConfig(const CoreConfig &cfg)
{
    // The field lines come to about 300 bytes.
    std::string out;
    out.reserve(384);
    serializeConfig(cfg, out);
    return out;
}

uint64_t
configFingerprint(const CoreConfig &cfg)
{
    return fnv1a(serializeConfig(cfg));
}

CoreConfig
skylakeConfig()
{
    CoreConfig cfg;
    cfg.name = "SKL";
    cfg.robEntries = 224;
    cfg.iqEntries = 68;
    cfg.lqEntries = 72;
    cfg.sqEntries = 56;
    cfg.rfEntries = 168;
    return cfg;
}

CoreConfig
haswellConfig()
{
    CoreConfig cfg;
    cfg.name = "HSW";
    cfg.robEntries = 192;
    cfg.iqEntries = 60;
    cfg.lqEntries = 72;
    cfg.sqEntries = 42;
    cfg.rfEntries = 128;
    return cfg;
}

CoreConfig
nehalemConfig()
{
    CoreConfig cfg;
    cfg.name = "NHM";
    cfg.robEntries = 128;
    cfg.iqEntries = 56;
    cfg.lqEntries = 48;
    cfg.sqEntries = 36;
    cfg.rfEntries = 64;
    return cfg;
}

CoreConfig
configByName(const std::string &name)
{
    if (name == "SKL")
        return skylakeConfig();
    if (name == "HSW")
        return haswellConfig();
    if (name == "NHM")
        return nehalemConfig();
    fatal("unknown core config '%s'", name.c_str());
}

} // namespace noreba
