#include "dist/protocol.hh"

#include <charconv>
#include <concepts>
#include <cstdio>
#include <string_view>

#include "sim/text.hh"

namespace hmcsim
{

namespace
{

// Verbs are read word by word with popWord, numbers with the strict
// decimal reader the experiment keys use: no sign, no leading zero,
// no trailing junk, and the value must fit its field.

bool
expectWord(std::string_view &line, std::string_view token)
{
    return popWord(line) == token;
}

template <std::integral T>
bool
popNumber(std::string_view &line, T &out)
{
    return parseKeyNumber(popWord(line), out) == nullptr;
}

/** A 0/1 flag word. */
bool
popFlag(std::string_view &line, bool &out)
{
    const std::string_view word = popWord(line);
    if (word != "0" && word != "1")
        return false;
    out = word == "1";
    return true;
}

/** The 16 hex digits formatPoint() writes. */
bool
popDigest(std::string_view &line, std::uint64_t &out)
{
    const std::string_view word = popWord(line);
    const char *end = word.data() + word.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(word.data(), end, v, 16);
    if (word.size() != 16 || ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

bool
atEnd(std::string_view line)
{
    return popWord(line).empty();
}

} // namespace

std::string
formatHello(unsigned jobs)
{
    return std::string("hello ") + distProtocolVersion + " jobs " +
           std::to_string(jobs);
}

bool
parseHello(const std::string &line, unsigned &jobs)
{
    std::string_view in = line;
    return expectWord(in, "hello") && expectWord(in, distProtocolVersion) &&
           expectWord(in, "jobs") && popNumber(in, jobs) && atEnd(in);
}

std::string
formatWelcome(bool warm_start, std::size_t total_points)
{
    return std::string("welcome ") + distProtocolVersion + " warm " +
           (warm_start ? "1" : "0") + " points " +
           std::to_string(total_points);
}

bool
parseWelcome(const std::string &line, bool &warm_start,
             std::size_t &total_points)
{
    std::string_view in = line;
    return expectWord(in, "welcome") &&
           expectWord(in, distProtocolVersion) && expectWord(in, "warm") &&
           popFlag(in, warm_start) && expectWord(in, "points") &&
           popNumber(in, total_points) && atEnd(in);
}

std::string
formatWant(unsigned max_points)
{
    return "want " + std::to_string(max_points);
}

bool
parseWant(const std::string &line, unsigned &max_points)
{
    std::string_view in = line;
    return expectWord(in, "want") && popNumber(in, max_points) && atEnd(in);
}

std::string
formatGranted(std::size_t count)
{
    return "granted " + std::to_string(count);
}

bool
parseGranted(const std::string &line, std::size_t &count)
{
    std::string_view in = line;
    return expectWord(in, "granted") && popNumber(in, count) && atEnd(in);
}

std::string
formatDrain()
{
    return "drain";
}

bool
isDrain(const std::string &line)
{
    return line == "drain";
}

std::string
formatPoint(std::size_t index, std::uint64_t digest,
            const std::string &config_blob)
{
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    return "point " + std::to_string(index) + ' ' + hex + '\n' +
           config_blob;
}

bool
parsePointHeader(const std::string &line, std::size_t &index,
                 std::uint64_t &digest)
{
    std::string_view in = line;
    return expectWord(in, "point") && popNumber(in, index) &&
           popDigest(in, digest) && atEnd(in);
}

std::string
formatResult(std::size_t index, bool simulated,
             const std::string &fields_blob)
{
    return "result " + std::to_string(index) + ' ' +
           (simulated ? '1' : '0') + '\n' + fields_blob;
}

bool
parseResultHeader(const std::string &line, std::size_t &index,
                  bool &simulated)
{
    std::string_view in = line;
    return expectWord(in, "result") && popNumber(in, index) &&
           popFlag(in, simulated) && atEnd(in);
}

void
splitFrame(const std::string &payload, std::string &header,
           std::string &body)
{
    const std::size_t nl = payload.find('\n');
    if (nl == std::string::npos) {
        header = payload;
        body.clear();
        return;
    }
    header = payload.substr(0, nl);
    body = payload.substr(nl + 1);
}

} // namespace hmcsim
