// lint:file(persistence) -- the shared persisted-text codec: %a hexfloat only, enforced by hmcsim-lint.
#include "runner/kv_codec.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hmcsim
{

bool
KvWriter::value(double v)
{
    char buf[40];
    buf[0] = ' ';
    const int n = std::snprintf(buf + 1, sizeof(buf) - 1, "%a", v);
    out.append(buf, static_cast<std::size_t>(n) + 1);
    return true;
}

bool
KvWriter::escaped(std::string_view v)
{
    static constexpr char hex[] = "0123456789ABCDEF";
    out += ' ';
    for (const char c : v) {
        if (c == '%' || c == '\n' || c == '\r') {
            const auto byte = static_cast<unsigned char>(c);
            out += '%';
            out += hex[byte >> 4];
            out += hex[byte & 0xF];
        } else {
            out += c;
        }
    }
    return true;
}

bool
KvReader::line(std::string_view text)
{
    if (!rest.starts_with(text) || rest.size() == text.size() ||
        rest[text.size()] != '\n')
        return false;
    rest.remove_prefix(text.size() + 1);
    return true;
}

bool
KvReader::key(const KvKey &key)
{
    if (!rest.starts_with(key.head))
        return false;
    rest.remove_prefix(key.head.size());
    if (!rest.starts_with(key.tail))
        return false;
    rest.remove_prefix(key.tail.size());
    return true;
}

bool
KvReader::space()
{
    if (rest.empty() || rest.front() != ' ')
        return false;
    rest.remove_prefix(1);
    return true;
}

bool
KvReader::value(bool &out)
{
    std::uint64_t v = 0;
    if (!value(v) || v > 1)
        return false;
    out = v != 0;
    return true;
}

bool
KvReader::value(double &out)
{
    if (!space())
        return false;
    // strtod needs a terminated token and would skip leading
    // whitespace or take a '+'; hand it a bounded copy of exactly the
    // token the writer's %a produced.
    const std::size_t n = std::min(rest.find_first_of(" \n"), rest.size());
    char token[48];
    if (n == 0 || n >= sizeof(token) || rest.front() == '+' ||
        std::isspace(static_cast<unsigned char>(rest.front())))
        return false;
    rest.copy(token, n);
    token[n] = '\0';
    char *end = nullptr;
    out = std::strtod(token, &end);
    if (end != token + n)
        return false;
    rest.remove_prefix(n);
    return true;
}

bool
KvReader::text(std::string &out)
{
    if (!space())
        return false;
    const std::size_t nl = rest.find('\n');
    if (nl == std::string_view::npos)
        return false;
    out.assign(rest.substr(0, nl));
    rest.remove_prefix(nl);
    return true;
}

bool
KvReader::escaped(std::string &out)
{
    if (!space())
        return false;
    const std::size_t nl = rest.find('\n');
    if (nl == std::string_view::npos)
        return false;
    const std::string_view v = rest.substr(0, nl);
    out.clear();
    out.reserve(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i] != '%') {
            out += v[i];
            continue;
        }
        // Exactly two hex digits: from_chars takes no sign or space.
        unsigned byte = 0;
        const char *first = v.data() + i + 1;
        if (i + 2 >= v.size() ||
            std::from_chars(first, first + 2, byte, 16).ptr != first + 2)
            return false;
        out += static_cast<char>(byte);
        i += 2;
    }
    rest.remove_prefix(nl);
    return true;
}

bool
KvReader::endLine()
{
    if (rest.empty() || rest.front() != '\n')
        return false;
    rest.remove_prefix(1);
    return true;
}

bool
readTextFile(const std::string &path, std::string &text)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    text.clear();
    char buf[4096];
    ssize_t got = 0;
    while ((got = ::read(fd, buf, sizeof(buf))) != 0) {
        if (got > 0)
            text.append(buf, static_cast<std::size_t>(got));
        else if (errno != EINTR)
            break;
    }
    ::close(fd);
    return got == 0;
}

} // namespace hmcsim
