// Seeded snapshot-safe violations: members of a tagged struct that
// hold addresses or iterators into the source simulator without a
// relocation note. Linted, never compiled.
struct Dummy;

struct PendingEntry // lint:snapshot-state
{
    unsigned long at = 0;
    Dummy *target;
    int *cursor = nullptr;
    SlotList::iterator pos;
    void retarget(Dummy *d) { target = d; }
    Dummy *noted; // lint:allow(snapshot-safe, relocated through the fork fixup map)
};

struct Unmarked
{
    Dummy *fine;
};
