#include "sim/stat_registry.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/fnv1a.hh"
#include "sim/logging.hh"

namespace hmcsim
{

void
StatRegistry::add(std::string name, std::string description, StatFn value)
{
    if (has(name))
        fatal("duplicate statistic '%s'", name.c_str());
    entries.push_back(
        {std::move(name), std::move(description), std::move(value)});
}

double
StatRegistry::value(const std::string &name) const
{
    for (const StatEntry &entry : entries) {
        if (entry.name == name)
            return entry.value();
    }
    fatal("unknown statistic '%s'", name.c_str());
}

bool
StatRegistry::has(const std::string &name) const
{
    for (const StatEntry &entry : entries) {
        if (entry.name == name)
            return true;
    }
    return false;
}

std::vector<const StatEntry *>
StatRegistry::matching(const std::string &prefix) const
{
    std::vector<const StatEntry *> out;
    for (const StatEntry &entry : entries) {
        if (entry.name.rfind(prefix, 0) == 0)
            out.push_back(&entry);
    }
    std::sort(out.begin(), out.end(),
              [](const StatEntry *a, const StatEntry *b) {
                  return a->name < b->name;
              });
    return out;
}

std::uint64_t
StatRegistry::digest() const
{
    // Each name's bytes, then its value's exact bits, so even sub-ulp
    // nondeterminism changes the digest.
    Fnv1a h;
    for (const StatEntry *entry : matching("")) {
        h.bytes(entry->name.data(), entry->name.size());
        h.f64(entry->value());
    }
    return h.value();
}

std::string
StatRegistry::dumpText() const
{
    const auto sorted = matching("");
    std::size_t width = 0;
    for (const StatEntry *entry : sorted)
        width = std::max(width, entry->name.size());

    std::ostringstream out;
    for (const StatEntry *entry : sorted) {
        out << std::left << std::setw(static_cast<int>(width) + 2)
            << entry->name << std::setprecision(6) << entry->value();
        if (!entry->description.empty())
            out << "  # " << entry->description;
        out << '\n';
    }
    return out.str();
}

std::string
StatRegistry::dumpCsv() const
{
    std::ostringstream out;
    out << "stat,value\n";
    for (const StatEntry *entry : matching(""))
        out << entry->name << ',' << std::setprecision(9)
            << entry->value() << '\n';
    return out.str();
}

} // namespace hmcsim
