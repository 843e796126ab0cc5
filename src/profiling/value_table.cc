#include "profiling/value_table.hh"

#include <algorithm>

#include "util/logging.hh"

namespace fvc::profiling {

namespace {

/** The first allocation holds 2^kMinBits slots. */
constexpr unsigned kMinBits = 6;

} // namespace

size_t
ValueCounterTable::find(Word value) const
{
    // Multiplicative (Fibonacci) hash: the top bits_ bits of
    // value * 2^64/phi, which mix every bit of the value.
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(value) * 0x9E3779B97F4A7C15ull) >>
        (64 - bits_));
    while (slots_[i].count != 0 && slots_[i].value != value)
        i = (i + 1) & mask;
    return i;
}

void
ValueCounterTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    bits_ = old.empty() ? kMinBits : bits_ + 1;
    slots_.assign(size_t{1} << bits_, Slot{});
    for (const Slot &slot : old) {
        if (slot.count != 0)
            slots_[find(slot.value)] = slot;
    }
}

void
ValueCounterTable::add(Word value)
{
    // Grow before a possible insert, so the load stays <= 1/2.
    if (2 * distinct_ >= slots_.size())
        grow();
    Slot &slot = slots_[find(value)];
    if (slot.count == 0) {
        slot.value = value;
        ++distinct_;
    }
    ++slot.count;
    ++total_;
}

uint64_t
ValueCounterTable::countOf(Word value) const
{
    return slots_.empty() ? 0 : slots_[find(value)].count;
}

std::vector<ValueCount>
ValueCounterTable::topK(size_t k) const
{
    std::vector<ValueCount> all;
    all.reserve(distinct_);
    for (const Slot &slot : slots_) {
        if (slot.count != 0)
            all.push_back({slot.value, slot.count});
    }
    auto cmp = [](const ValueCount &a, const ValueCount &b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.value < b.value;
    };
    if (all.size() > k) {
        std::partial_sort(all.begin(), all.begin() + k, all.end(),
                          cmp);
        all.resize(k);
    } else {
        std::sort(all.begin(), all.end(), cmp);
    }
    return all;
}

uint64_t
ValueCounterTable::topKMass(size_t k) const
{
    uint64_t mass = 0;
    for (const auto &vc : topK(k))
        mass += vc.count;
    return mass;
}

void
ValueCounterTable::clear()
{
    *this = ValueCounterTable();
}

SpaceSavingSketch::SpaceSavingSketch(size_t capacity)
    : capacity_(capacity)
{
    fvc_assert(capacity > 0, "sketch capacity must be positive");
    entries_.reserve(capacity);
}

size_t
SpaceSavingSketch::minEntry() const
{
    size_t best = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].count < entries_[best].count)
            best = i;
    }
    return best;
}

void
SpaceSavingSketch::add(Word value)
{
    ++total_;
    auto it = index_.find(value);
    if (it != index_.end()) {
        ++entries_[it->second].count;
        return;
    }
    if (entries_.size() < capacity_) {
        index_[value] = entries_.size();
        entries_.push_back({value, 1, 0});
        return;
    }
    // Replace the minimum-count entry, inheriting its count as the
    // classic Space-Saving overestimate.
    size_t victim = minEntry();
    index_.erase(entries_[victim].value);
    uint64_t base = entries_[victim].count;
    entries_[victim] = {value, base + 1, base};
    index_[value] = victim;
}

std::vector<ValueCount>
SpaceSavingSketch::topK(size_t k) const
{
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.value < b.value;
              });
    std::vector<ValueCount> out;
    for (size_t i = 0; i < sorted.size() && i < k; ++i)
        out.push_back({sorted[i].value, sorted[i].count});
    return out;
}

} // namespace fvc::profiling
