/* The Monte Carlo sampler of ruma.spray over numpy's Philox stream.
 *
 * The stream is that of numpy.random.Philox under the key (k0, k1) that
 * ruma.philox.seed_key derives from the seed: Philox4x64-10 blocks
 * (Salmon et al., SC 2011) for counters 1, 2, 3, ..., four 64-bit words
 * each. Half h of the stream is 32-bit half h % 2 of word h / 2, the low
 * half first, as numpy's next_uint32 serves them.
 *
 * spray_successes counts, of the `chains` chains of k halves that start
 * at half first_half, those whose every half ANDed with `field` is zero:
 * the chains whose every stage reads the sprayed value back. A chain
 * stops at its first failed stage, and the next chain starts where the
 * failed one would have ended. An even chain starts on a word (the
 * caller passes whole chains) and is tested k / 2 whole words at a time
 * against the field in both halves; an odd one is tested half by half.
 *
 * The file calls no function outside itself, so the library needs no
 * symbol from any other.
 */
#include <stdint.h>

typedef unsigned __int128 u128;

/* words[0..3] = the Philox4x64-10 block for `counter` under (k0, k1) */
static void philox(uint64_t counter, uint64_t k0, uint64_t k1, uint64_t words[4])
{
    uint64_t x0 = counter, x1 = 0, x2 = 0, x3 = 0;
    /* unrolled, the sampler takes about a fifth less time at -O2 (GCC 12) */
#pragma GCC unroll 10
    for (int round = 0; round < 10; round++) {
        u128 p0 = (u128)x0 * 0xD2E7470EE14C6C93u;
        u128 p1 = (u128)x2 * 0xCA5A826395121157u;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;
        x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
        x3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    words[0] = x0;
    words[1] = x1;
    words[2] = x2;
    words[3] = x3;
}

uint64_t spray_successes(uint64_t k0, uint64_t k1, uint64_t first_half,
                         uint64_t chains, uint64_t k, uint32_t field)
{
    uint64_t words[4], block = 0; /* the block in words; no stream block is 0 */
    uint64_t successes = 0;
    if (k % 2 == 0) {
        uint64_t mask = (uint64_t)field << 32 | field;
        uint64_t w = first_half / 2;
        for (; chains; chains--) {
            uint64_t end = w + k / 2;
            for (; w < end; w++) {
                if (w / 4 + 1 != block)
                    philox(block = w / 4 + 1, k0, k1, words);
                if (words[w % 4] & mask)
                    break;
            }
            successes += w == end;
            w = end;
        }
    } else {
        uint64_t h = first_half;
        for (; chains; chains--) {
            uint64_t end = h + k;
            for (; h < end; h++) {
                if (h / 8 + 1 != block)
                    philox(block = h / 8 + 1, k0, k1, words);
                if ((uint32_t)(words[h / 2 % 4] >> (h % 2 * 32)) & field)
                    break;
            }
            successes += h == end;
            h = end;
        }
    }
    return successes;
}
