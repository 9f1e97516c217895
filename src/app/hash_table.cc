#include "app/hash_table.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rpcvalet::app {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

HashTable::HashTable(std::size_t initial_buckets)
    : buckets_(roundUpPow2(std::max<std::size_t>(initial_buckets, 8)),
               nullptr)
{
}

HashTable::~HashTable()
{
    for (Node *head : buckets_) {
        while (head != nullptr) {
            Node *next = head->next;
            delete head;
            head = next;
        }
    }
}

std::uint64_t
HashTable::mix(std::uint64_t key)
{
    // splitmix64 finalizer: full-avalanche integer hash.
    key += 0x9e3779b97f4a7c15ULL;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
}

std::size_t
HashTable::bucketFor(std::uint64_t key, std::size_t nbuckets) const
{
    return static_cast<std::size_t>(mix(key)) & (nbuckets - 1);
}

bool
HashTable::put(std::uint64_t key, std::vector<std::uint8_t> value)
{
    maybeGrow();
    Node *&head = buckets_[bucketFor(key, buckets_.size())];
    for (Node *n = head; n != nullptr; n = n->next) {
        if (n->key == key) {
            n->value = std::move(value);
            return false;
        }
    }
    head = new Node{key, std::move(value), head};
    ++size_;
    return true;
}

std::optional<std::vector<std::uint8_t>>
HashTable::get(std::uint64_t key) const
{
    if (const auto *value = find(key))
        return *value;
    return std::nullopt;
}

const std::vector<std::uint8_t> *
HashTable::find(std::uint64_t key) const
{
    const Node *head = buckets_[bucketFor(key, buckets_.size())];
    for (const Node *n = head; n != nullptr; n = n->next) {
        if (n->key == key)
            return &n->value;
    }
    return nullptr;
}

bool
HashTable::contains(std::uint64_t key) const
{
    return find(key) != nullptr;
}

bool
HashTable::erase(std::uint64_t key)
{
    Node **link = &buckets_[bucketFor(key, buckets_.size())];
    while (*link != nullptr) {
        if ((*link)->key == key) {
            Node *victim = *link;
            *link = victim->next;
            delete victim;
            --size_;
            return true;
        }
        link = &(*link)->next;
    }
    return false;
}

double
HashTable::loadFactor() const
{
    return static_cast<double>(size_) /
           static_cast<double>(buckets_.size());
}

std::size_t
HashTable::maxChainLength() const
{
    std::size_t longest = 0;
    for (const Node *head : buckets_) {
        std::size_t len = 0;
        for (const Node *n = head; n != nullptr; n = n->next)
            ++len;
        longest = std::max(longest, len);
    }
    return longest;
}

void
HashTable::maybeGrow()
{
    if (loadFactor() < 0.75)
        return;
    const std::size_t new_count = buckets_.size() * 2;
    std::vector<Node *> fresh(new_count, nullptr);
    for (Node *head : buckets_) {
        while (head != nullptr) {
            Node *next = head->next;
            Node *&slot = fresh[bucketFor(head->key, new_count)];
            head->next = slot;
            slot = head;
            head = next;
        }
    }
    buckets_ = std::move(fresh);
}

} // namespace rpcvalet::app
