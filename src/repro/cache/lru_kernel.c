/*
 * Compiled LRU inner loop of SetAssociativeCache.access_arrays.
 *
 * One pass over a batch in trace order.  Set s keeps its resident tags in
 * resident[s * ways .. s * ways + fill[s]), most recent first -- the same
 * recency order as the Python per-set lists.  A hit moves the tag to the
 * front; a miss inserts it at the front and, when the set is full, evicts
 * the least recent tag from the back.  Sets are independent, so trace
 * order needs no grouping by set.
 *
 * Lines ever referenced live in an open-addressing hash set: seen[] has
 * 2^meta[2] slots, 0 marks an empty slot (line 0 is the flag meta[1]),
 * and meta[0] counts the occupied slots.  A miss is cold when its line
 * enters the set.
 *
 * The caller guarantees set_index[i] < num_sets and fill[s] <= ways,
 * sizes seen[] to at least 2 * (meta[0] + count) slots so that it stays
 * at most half full, and passes zeroed cold/evicted/evicted_tag columns.
 */
#include <stdint.h>
#include <string.h>

static int seen_insert(uint64_t *seen, int64_t *meta, uint64_t line)
{
    if (line == 0) {
        if (meta[1])
            return 0;
        meta[1] = 1;
        return 1;
    }
    uint64_t mask = ((uint64_t)1 << meta[2]) - 1;
    uint64_t slot = (line * 0x9E3779B97F4A7C15ull) >> (64 - meta[2]);
    while (seen[slot]) {
        if (seen[slot] == line)
            return 0;
        slot = (slot + 1) & mask;
    }
    seen[slot] = line;
    meta[0]++;
    return 1;
}

void seen_add(int64_t count, const uint64_t *line, uint64_t *seen,
              int64_t *meta)
{
    for (int64_t i = 0; i < count; i++)
        seen_insert(seen, meta, line[i]);
}

void lru_access(int64_t count, const uint64_t *set_index, const uint64_t *tag,
                const uint64_t *line, uint64_t *resident, int64_t *fill,
                int64_t ways, uint64_t *seen, int64_t *meta, uint8_t *hit,
                uint8_t *cold, uint8_t *evicted, uint64_t *evicted_tag)
{
    for (int64_t i = 0; i < count; i++) {
        uint64_t set = set_index[i];
        uint64_t *row = resident + set * (uint64_t)ways;
        uint64_t value = tag[i];
        int64_t used = fill[set];
        int64_t way = 0;
        while (way < used && row[way] != value)
            way++;
        hit[i] = way < used;
        if (way == used) {
            cold[i] = seen_insert(seen, meta, line[i]);
            if (used == ways) {
                way = ways - 1;
                evicted[i] = 1;
                evicted_tag[i] = row[way];
            } else {
                fill[set] = used + 1;
            }
        }
        memmove(row + 1, row, (size_t)way * sizeof *row);
        row[0] = value;
    }
}
