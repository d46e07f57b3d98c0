// Tag gating: std::function and HMCSIM_CHECK are fine in a file NOT
// tagged hot-path, and %g, decimal to_chars and the iostream float
// manipulators are fine outside persistence files. This
// fixture must produce zero findings.
#include <cstdio>
#include <functional>

#include "sim/check.hh"

std::function<void()> callback;

void
report(char *buf, unsigned long n, double v)
{
    HMCSIM_CHECK(n > 0, "empty buffer");
    std::snprintf(buf, n, "%g", v);
}

void
reportStream(std::ostream &out, char *buf, char *end, double v)
{
    std::to_chars(buf, end, v, std::chars_format::general, 17);
    out << std::fixed << std::setprecision(3) << v;
}
