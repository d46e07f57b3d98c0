/**
 * @file
 * Key-value line codec shared by every persisted text format.
 *
 * The wire form of an ExperimentConfig (dist/wire.cc), the result
 * body of store objects (runner/result_cache.cc) and the store's
 * claim record (dist/store.cc) are each a sequence of
 * "key value...\n" lines in a fixed order. KvWriter appends such
 * lines to a std::string; KvReader walks the same text as a
 * std::string_view, strictly:
 *
 *  - keys must appear in the order given, each followed by exactly
 *    one space per value and a terminating '\n';
 *  - integers are plain decimal digits (no sign, no leading space, no
 *    trailing junk) and must fit the destination type;
 *  - enums must name a declared enumerator, bools are 0 or 1;
 *  - doubles are C99 hexfloats (%a), so every bit round-trips;
 *  - escaped strings use %XX for '%', '\n' and '\r' only.
 *
 * Both classes offer the same calls with the same return type, so one
 * field list, written once as a template over the codec, drives both
 * directions (see runner/config_fields.hh, which the config digest
 * walks too). A writer call always succeeds; a reader call returns
 * false on the first malformed or missing field.
 */

#ifndef HMCSIM_RUNNER_KV_CODEC_HH
#define HMCSIM_RUNNER_KV_CODEC_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace hmcsim
{

/** A line key, given whole or as prefix + name ("vault.timings." +
 *  "tRcd") so that no caller has to build it. */
struct KvKey
{
    KvKey(const char *key) : head(key) {}
    KvKey(std::string_view head, std::string_view tail)
        : head(head), tail(tail)
    {
    }

    std::string_view head;
    std::string_view tail;
};

/** Appends key-value lines to a string. */
class KvWriter
{
  public:
    explicit KvWriter(std::string &out) : out(out) {}

    /** A whole line, e.g. a format header. */
    bool
    line(std::string_view text)
    {
        out += text;
        out += '\n';
        return true;
    }

    /** Start a line with @p key; values follow, then endLine(). */
    bool
    key(const KvKey &key)
    {
        out += key.head;
        out += key.tail;
        return true;
    }

    template <std::unsigned_integral T>
    bool
    value(T v)
    {
        char buf[24];
        buf[0] = ' ';
        const auto res = std::to_chars(buf + 1, buf + sizeof(buf), v);
        out.append(buf, static_cast<std::size_t>(res.ptr - buf));
        return true;
    }

    bool value(bool v) { return value(v ? 1u : 0u); }
    bool value(double v);

    template <typename E>
        requires std::is_enum_v<E>
    bool
    value(E v, E /*last*/)
    {
        return value(static_cast<std::uint64_t>(v));
    }

    /** The rest of the line, verbatim (@p v must not hold '\n'). */
    bool
    text(std::string_view v)
    {
        out += ' ';
        out += v;
        return true;
    }

    /** The rest of the line, '%', '\n' and '\r' as %XX. */
    bool escaped(std::string_view v);

    bool
    endLine()
    {
        out += '\n';
        return true;
    }

    /** A reader-side validity check; the writer trusts its input. */
    bool check(bool /*ok*/) { return true; }

    /** One "key value\n" line; @p args are value()'s arguments. */
    template <typename... Args>
    bool
    field(const KvKey &k, const Args &...args)
    {
        return key(k) && value(args...) && endLine();
    }

  private:
    std::string &out;
};

/** Reads what KvWriter wrote, rejecting anything else. */
class KvReader
{
  public:
    explicit KvReader(std::string_view text) : rest(text) {}

    /** Consume the next line iff it is exactly @p text. */
    bool line(std::string_view text);

    /** Consume @p key at the start of the next line. */
    bool key(const KvKey &key);

    template <std::unsigned_integral T>
    bool
    value(T &out)
    {
        if (!space())
            return false;
        const char *end = rest.data() + rest.size();
        const auto res = std::from_chars(rest.data(), end, out);
        if (res.ec != std::errc())
            return false;
        rest = std::string_view(res.ptr, end);
        return true;
    }

    bool value(bool &out);
    bool value(double &out);

    /** An enum stored as its integer; valid values are 0..@p last. */
    template <typename E>
        requires std::is_enum_v<E>
    bool
    value(E &out, E last)
    {
        std::uint64_t v = 0;
        if (!value(v) || v > static_cast<std::uint64_t>(last))
            return false;
        out = static_cast<E>(v);
        return true;
    }

    bool text(std::string &out);
    bool escaped(std::string &out);
    bool endLine();

    /** Reject the text unless @p ok (a cross-field or value check). */
    bool check(bool ok) { return ok; }

    /** True once every byte of the text was consumed. */
    bool atEnd() const { return rest.empty(); }

    /** One "key value\n" line; @p args are value()'s arguments. */
    template <typename... Args>
    bool
    field(const KvKey &k, Args &&...args)
    {
        return key(k) && value(std::forward<Args>(args)...) && endLine();
    }

  private:
    /** Consume the one space that precedes every value. */
    bool space();

    std::string_view rest;
};

/** Read the whole file at @p path into @p text; false if unreadable. */
bool readTextFile(const std::string &path, std::string &text);

} // namespace hmcsim

#endif // HMCSIM_RUNNER_KV_CODEC_HH
