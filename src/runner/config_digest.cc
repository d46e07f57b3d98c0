#include "runner/config_digest.hh"

#include <string_view>
#include <type_traits>

#include "runner/config_fields.hh"
#include "sim/fnv1a.hh"

namespace hmcsim
{

namespace
{

/**
 * A codec (runner/config_fields.hh) that hashes the field list instead
 * of writing it: integers, enums and bools enter as 8 bytes, doubles
 * as their bits, strings as their length then their bytes (so "ab","c"
 * never collides with "a","bc"). Keys are not hashed; the field keyed
 * @c skip is left out.
 */
struct DigestCodec
{
    Fnv1a h;
    std::string_view skip;

    bool key(const KvKey &) { return true; }
    bool endLine() { return true; }
    bool check(bool) { return true; }

    /** One value; an enum's trailing "last" argument is not hashed. */
    template <typename T, typename... Last>
    bool
    value(const T &v, const Last &...)
    {
        if constexpr (std::is_floating_point_v<T>)
            h.f64(v);
        else
            h.u64(static_cast<std::uint64_t>(v));
        return true;
    }

    bool
    escaped(std::string_view v)
    {
        h.u64(v.size());
        h.bytes(v.data(), v.size());
        return true;
    }

    template <typename... Args>
    bool
    field(const KvKey &k, const Args &...args)
    {
        return (k.tail.empty() && k.head == skip) || value(args...);
    }
};

/** FNV-1a of the version @p tag, then of every field but @p skip. */
std::uint64_t
digest(const ExperimentConfig &cfg, std::string_view tag,
       std::string_view skip)
{
    DigestCodec codec{{}, skip};
    codec.escaped(tag);
    codeConfig(codec, cfg);
    return codec.h.value();
}

} // namespace

std::uint64_t
configDigest(const ExperimentConfig &cfg, bool include_seed)
{
    // Version tag: bump when the field list changes, so stale on-disk
    // cache entries can never match new digests.
    // v2: vault backend selection + per-backend parameters.
    return digest(cfg, "hmcsim.experiment.v2", include_seed ? "" : "seed");
}

std::uint64_t
warmupDigest(const ExperimentConfig &cfg)
{
    // Distinct tag: warm-up identities live in their own namespace.
    // v1: configDigest v2 minus the measure window (which starts after
    // the fork point, so it cannot influence the warm state).
    return digest(cfg, "hmcsim.warmup.v1", "measure");
}

} // namespace hmcsim
