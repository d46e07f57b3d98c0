// lint:file(persistence)
// Seeded violation for `hexfloat-persistence`: decimal float
// formatting in a persistence file. The %a line below must NOT fire.
#include <cstdio>

void
persist(char *buf, unsigned long n, double v)
{
    std::snprintf(buf, n, "%.17g", v);
    std::snprintf(buf, n, "%a", v);
}

// Decimal formatting without a format string fires too: to_chars in a
// decimal format and the iostream float manipulators. The hex to_chars
// line and the mentions in this comment (std::fixed) must NOT fire.
void
persistStream(std::ostream &out, char *buf, char *end, double v)
{
    std::to_chars(buf, end, v, std::chars_format::general, 17);
    std::to_chars(buf, end, v, std::chars_format::fixed);
    std::to_chars(buf, end, v, std::chars_format::scientific);
    std::to_chars(buf, end, v, std::chars_format::hex);
    out << std::fixed << v;
    out << std::scientific << v;
    out << std::setprecision(17) << v;
    out << "std::setprecision in a literal" << v;
}
