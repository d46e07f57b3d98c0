/**
 * @file
 * Whitespace word splitting over std::string_view, shared by the line
 * formats read from outside the process (serve requests, GUPS trace
 * files) so that none of them needs a stream to tokenize.
 */

#ifndef HMCSIM_SIM_TEXT_HH
#define HMCSIM_SIM_TEXT_HH

#include <algorithm>
#include <string_view>

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

} // namespace hmcsim

#endif // HMCSIM_SIM_TEXT_HH
