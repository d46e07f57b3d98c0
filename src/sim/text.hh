/**
 * @file
 * Whitespace word splitting and strict decimal numbers over
 * std::string_view, shared by the text read from outside the process
 * (CLI flags, serve requests, GUPS trace files, coordinator/worker
 * frame verbs) so that none of them needs a stream to tokenize or
 * strtoul to read a number.
 */

#ifndef HMCSIM_SIM_TEXT_HH
#define HMCSIM_SIM_TEXT_HH

#include <algorithm>
#include <charconv>
#include <concepts>
#include <string_view>
#include <system_error>

namespace hmcsim
{

/** Pop the next whitespace-separated word off the front of @p text;
 *  empty once only whitespace is left. */
inline std::string_view
popWord(std::string_view &text)
{
    constexpr std::string_view space = " \t\r\n\v\f";
    const std::size_t first =
        std::min(text.find_first_not_of(space), text.size());
    const std::size_t last =
        std::min(text.find_first_of(space, first), text.size());
    const std::string_view word = text.substr(first, last - first);
    text.remove_prefix(last);
    return word;
}

/** Parse all of @p text as a plain decimal integer that fits @p out;
 *  nullptr on success, else why not (and @p out is untouched). */
template <std::integral T>
const char *
parseKeyNumber(std::string_view text, T &out)
{
    // from_chars takes no '+' or space; '-' and a leading zero (which
    // strtoul would read as octal) are refused here.
    if (text.empty() || text[0] == '-' || (text.size() > 1 && text[0] == '0'))
        return "is not a plain decimal integer";
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::result_out_of_range)
        return "is out of range";
    if (ec != std::errc() || ptr != end)
        return "is not a plain decimal integer";
    out = v;
    return nullptr;
}

} // namespace hmcsim

#endif // HMCSIM_SIM_TEXT_HH
