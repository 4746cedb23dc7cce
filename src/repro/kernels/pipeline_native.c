/* Native end-to-end pipeline kernels (compiled by repro.kernels.native).
 *
 * One call per epoch: each entry point walks a whole sample's packed
 * buffers sequentially, so the Python<->C boundary is crossed once per
 * (scheme, application) stage instead of once per NumPy primitive.
 *
 * Exactness contract (mirrors repro.kernels.pipeline):
 *   - every kernel computes in integers; the only floating-point
 *     operations are exact comparisons (uniform draw < threshold in
 *     block_assemble), so results are byte-identical to the vectorized
 *     tier — all float *arithmetic* (latency means, energy) stays in
 *     NumPy;
 *   - bit streams arrive as little-endian packed uint64 words: global
 *     bit g of the flattened (n, block_bits) matrix lives at bit
 *     (g % 64) of word (g / 64);
 *   - return codes: 0 ok, 1 unsupported geometry (caller falls back to
 *     NumPy), 2 allocation failure (ditto).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef uint8_t u8;
typedef double f64;

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) ((i64)__builtin_popcountll(x))
#else
static i64 POPCOUNT64(u64 x) {
    i64 c = 0;
    while (x) {
        x &= x - 1;
        c++;
    }
    return c;
}
#endif

/* nbits in 1..64 little-endian bits starting at bit offset `off`. */
static inline u64 get_bits(const u64 *words, i64 off, i64 nbits) {
    i64 word = off >> 6;
    i64 shift = off & 63;
    u64 lo = words[word] >> shift;
    if (shift && shift + nbits > 64) {
        lo |= words[word + 1] << (64 - shift);
    }
    if (nbits == 64) {
        return lo;
    }
    return lo & ((1ULL << nbits) - 1);
}

/* ------------------------------------------------------------------ */
/* DESC: skip/fire schedule and integer cost tallies                   */
/* ------------------------------------------------------------------ */

/* values: (num_blocks * rounds, wires) int64 chunk stream in time
 * order.  skip_policy: 0 none, 1 zero, 2 last-value.  last0: the wire
 * history before the stream (last-value policy only; length wires).
 * Outputs: per-block data/overhead/cycle tallies plus per-round
 * fire_sum and data_count so NumPy can reproduce the float latency
 * expression exactly. */
i64 desc_stream_cost(const i64 *values, i64 num_blocks, i64 rounds, i64 wires,
                     i64 skip_policy, const i64 *last0,
                     i64 *data_flips, i64 *overhead_flips, i64 *cycles,
                     i64 *fire_sum, i64 *data_count) {
    if (num_blocks <= 0 || rounds <= 0 || wires <= 0) {
        return 1;
    }
    if (skip_policy < 0 || skip_policy > 2) {
        return 1;
    }
    memset(data_flips, 0, (size_t)num_blocks * sizeof(i64));
    memset(overhead_flips, 0, (size_t)num_blocks * sizeof(i64));
    memset(cycles, 0, (size_t)num_blocks * sizeof(i64));
    i64 total_rounds = num_blocks * rounds;
    for (i64 t = 0; t < total_rounds; t++) {
        const i64 *row = values + t * wires;
        const i64 *prev = (t == 0) ? last0 : row - wires;
        i64 last_fire = -1;
        i64 any_skip = 0;
        i64 count = 0;
        i64 fsum = 0;
        /* Per-policy branch-free bodies: skip decisions follow the
         * data, so conditional moves beat branches here. */
        if (skip_policy == 0) {
            for (i64 w = 0; w < wires; w++) {
                i64 v = row[w];
                count++;
                fsum += v;
                last_fire = (v > last_fire) ? v : last_fire;
            }
        } else if (skip_policy == 1) {
            for (i64 w = 0; w < wires; w++) {
                i64 v = row[w];
                i64 keep = (v != 0);
                any_skip |= !keep;
                count += keep;
                fsum += keep ? v : 0;
                i64 f = keep ? v : -1;
                last_fire = (f > last_fire) ? f : last_fire;
            }
        } else {
            for (i64 w = 0; w < wires; w++) {
                i64 v = row[w];
                i64 p = prev[w];
                i64 keep = (v != p);
                i64 fire = v + (v < p);
                any_skip |= !keep;
                count += keep;
                fsum += keep ? fire : 0;
                i64 f = keep ? fire : -1;
                last_fire = (f > last_fire) ? f : last_fire;
            }
        }
        i64 duration = (last_fire < 0) ? 2 : last_fire + 1 + any_skip;
        i64 block = t / rounds;
        data_flips[block] += count;
        overhead_flips[block] += 1 + any_skip;
        cycles[block] += duration;
        fire_sum[t] = fsum;
        data_count[t] = count;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Baseline encoders over packed bit streams                           */
/* ------------------------------------------------------------------ */

/* Plain binary bus: flips = hamming(beat, previous beat), bus starts
 * all-low.  Lanes of <=64 wires make any bus width exact. */
i64 binary_stream_cost(const u64 *words, i64 num_blocks, i64 beats,
                       i64 data_wires, i64 *data_flips) {
    if (num_blocks <= 0 || beats <= 0 || data_wires <= 0) {
        return 1;
    }
    i64 lanes = (data_wires + 63) / 64;
    u64 *prev = (u64 *)calloc((size_t)lanes, sizeof(u64));
    if (prev == NULL) {
        return 2;
    }
    i64 total_beats = num_blocks * beats;
    for (i64 t = 0; t < total_beats; t++) {
        i64 base = t * data_wires;
        i64 flips = 0;
        for (i64 l = 0; l < lanes; l++) {
            i64 off = l * 64;
            i64 nl = data_wires - off;
            if (nl > 64) {
                nl = 64;
            }
            u64 cur = get_bits(words, base + off, nl);
            flips += POPCOUNT64(cur ^ prev[l]);
            prev[l] = cur;
        }
        data_flips[t / beats] += flips;
    }
    free(prev);
    return 0;
}

/* ------------------------------------------------------------------ */
/* SWAR helpers: s-bit segments packed in 64-bit lanes                 */
/* ------------------------------------------------------------------ */

/* `value` (< 2**s) replicated into every s-bit field of a word. */
static inline u64 rep_field(i64 s, u64 value) {
    u64 m = 0;
    for (i64 j = 0; j < 64; j += s) {
        m |= value << j;
    }
    return m;
}

/* Per-field popcount for s in {1, 2, 4, 8}. */
static inline u64 field_pop(u64 x, i64 s) {
    if (s == 1) {
        return x;
    }
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    if (s == 2) {
        return x;
    }
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    if (s == 4) {
        return x;
    }
    return (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
}

/* Horizontal sum of per-field counts (total <= 64). */
static inline i64 field_sum(u64 d, i64 s) {
    if (s == 1) {
        return POPCOUNT64(d);
    }
    if (s == 2) {
        d = (d & 0x3333333333333333ULL) + ((d >> 2) & 0x3333333333333333ULL);
        d = (d + (d >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    } else if (s == 4) {
        d = (d + (d >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    }
    return (i64)((d * 0x0101010101010101ULL) >> 56);
}

/* MSB-per-field mask of the zero fields of w (power-of-two s). */
static inline u64 field_zero_msb(u64 w, i64 s, u64 lsb_mask) {
    u64 t = w;
    for (i64 sh = 1; sh < s; sh <<= 1) {
        t |= t >> sh;
    }
    return (~t & lsb_mask) << (s - 1);
}

/* Bus-invert over whole 64-bit lanes: all segments of a lane advance
 * in one SWAR step — per-field popcounts, the toggle (hd > s/2) and
 * tie (hd == s/2) decisions as MSB-per-field masks, and packed
 * polarity/skip state.  Covers s in {1, 2, 4, 8} with the bus a whole
 * number of lanes; the scalar loop below remains the general path. */
static i64 bus_invert_swar(const u64 *words, i64 num_blocks, i64 beats,
                           i64 lanes, i64 s, i64 mode, const u64 *pow3,
                           i64 *data_flips, i64 *overhead_flips) {
    i64 lps = 64 / s; /* segments per lane */
    u64 fmax = (((u64)1 << s) - 1);
    u64 msb = rep_field(s, (u64)1 << (s - 1));
    u64 lsb = rep_field(s, 1);
    /* (d + add_toggle) sets the field MSB iff d > s/2; (d + add_half)
     * iff d >= s/2.  Field values stay < 2**s, so no carries cross. */
    u64 add_toggle = rep_field(s, ((u64)1 << (s - 1)) - (u64)(s / 2 + 1));
    u64 add_half = rep_field(s, ((u64)1 << (s - 1)) - (u64)(s / 2));
    u64 *held = (u64 *)calloc((size_t)lanes, sizeof(u64));
    u64 *pol = (u64 *)calloc((size_t)lanes, sizeof(u64));
    u64 *skip = (u64 *)calloc((size_t)lanes, sizeof(u64));
    if (held == NULL || pol == NULL || skip == NULL) {
        free(held);
        free(pol);
        free(skip);
        return 2;
    }
    u64 prev_mode_word = 0;
    i64 total_beats = num_blocks * beats;
    for (i64 t = 0; t < total_beats; t++) {
        i64 data = 0;
        i64 overhead = 0;
        u64 mode_word = 0;
        for (i64 l = 0; l < lanes; l++) {
            u64 w = words[t * lanes + l];
            u64 x = w ^ held[l];
            u64 d = field_pop(x, s);
            u64 toggle = (d + add_toggle) & msb;
            u64 tie = (s == 1) ? 0 : (((d + add_half) & msb) & ~toggle);
            if (mode == 0) {
                u64 tf = (toggle >> (s - 1)) * fmax;
                data += field_sum(d, s) + s * POPCOUNT64(toggle)
                      - 2 * field_sum(d & tf, s);
                overhead += POPCOUNT64(toggle | (tie & pol[l]));
                pol[l] = (pol[l] ^ toggle) & ~tie;
                held[l] = w;
            } else {
                u64 z = field_zero_msb(w, s, lsb);
                u64 zf = (z >> (s - 1)) * fmax;
                toggle &= ~z;
                u64 tf = (toggle >> (s - 1)) * fmax;
                data += field_sum(d & ~zf, s) + s * POPCOUNT64(toggle)
                      - 2 * field_sum(d & tf, s);
                u64 new_pol = (pol[l] ^ toggle) & ~tie;
                if (mode == 1) {
                    overhead += POPCOUNT64(~z & (toggle | (tie & pol[l])))
                              + POPCOUNT64(z ^ skip[l]);
                    skip[l] = z;
                } else {
                    /* Encoded: base-3 digit per segment — 2 skipped,
                     * else the absolute polarity after the beat. */
                    u64 pb = new_pol & ~z;
                    for (i64 j = 0; j < lps; j++) {
                        u64 bit = (u64)1 << (j * s + s - 1);
                        u64 digit = ((z & bit) ? 2 : ((pb & bit) ? 1 : 0));
                        mode_word += digit * pow3[l * lps + j];
                    }
                }
                pol[l] = (z & pol[l]) | (new_pol & ~z);
                held[l] = (held[l] & zf) | (w & ~zf);
            }
        }
        if (mode == 2) {
            overhead += POPCOUNT64(mode_word ^ prev_mode_word);
            prev_mode_word = mode_word;
        }
        data_flips[t / beats] += data;
        overhead_flips[t / beats] += overhead;
    }
    free(held);
    free(pol);
    free(skip);
    return 0;
}

/* Dynamic zero compression: per segment, zero words raise a level
 * indicator and leave the data wires held; non-zero words drive plain
 * binary against the held pattern. */
i64 dzc_stream_cost(const u64 *words, i64 num_blocks, i64 beats,
                    i64 data_wires, i64 segment_bits,
                    i64 *data_flips, i64 *overhead_flips) {
    if (num_blocks <= 0 || beats <= 0 || segment_bits <= 0 ||
        segment_bits > 64 || data_wires % segment_bits) {
        return 1;
    }
    /* SWAR fast path: whole lanes of power-of-two segments — the data
     * flips reduce to one masked popcount per lane. */
    if (data_wires % 64 == 0 && (segment_bits & (segment_bits - 1)) == 0) {
        i64 s = segment_bits;
        i64 lanes = data_wires / 64;
        u64 fmax = (s == 64) ? ~(u64)0 : (((u64)1 << s) - 1);
        u64 lsb = rep_field(s, 1);
        u64 *held = (u64 *)calloc((size_t)lanes, sizeof(u64));
        u64 *level = (u64 *)calloc((size_t)lanes, sizeof(u64));
        if (held == NULL || level == NULL) {
            free(held);
            free(level);
            return 2;
        }
        i64 total_beats = num_blocks * beats;
        for (i64 t = 0; t < total_beats; t++) {
            i64 data = 0;
            i64 overhead = 0;
            for (i64 l = 0; l < lanes; l++) {
                u64 w = words[t * lanes + l];
                u64 z = field_zero_msb(w, s, lsb);
                u64 zf = (z >> (s - 1)) * fmax;
                data += POPCOUNT64((w ^ held[l]) & ~zf);
                held[l] = (held[l] & zf) | (w & ~zf);
                overhead += POPCOUNT64(z ^ level[l]);
                level[l] = z;
            }
            data_flips[t / beats] += data;
            overhead_flips[t / beats] += overhead;
        }
        free(held);
        free(level);
        return 0;
    }
    i64 nseg = data_wires / segment_bits;
    u64 *held = (u64 *)calloc((size_t)nseg, sizeof(u64));
    u8 *zero_level = (u8 *)calloc((size_t)nseg, 1);
    if (held == NULL || zero_level == NULL) {
        free(held);
        free(zero_level);
        return 2;
    }
    i64 total_beats = num_blocks * beats;
    for (i64 t = 0; t < total_beats; t++) {
        i64 base = t * data_wires;
        i64 block = t / beats;
        i64 data = 0;
        i64 overhead = 0;
        for (i64 j = 0; j < nseg; j++) {
            u64 w = get_bits(words, base + j * segment_bits, segment_bits);
            u8 is_zero = (w == 0);
            if (!is_zero) {
                data += POPCOUNT64(w ^ held[j]);
                held[j] = w;
            }
            if (is_zero != zero_level[j]) {
                overhead++;
                zero_level[j] = is_zero;
            }
        }
        data_flips[block] += data;
        overhead_flips[block] += overhead;
    }
    free(held);
    free(zero_level);
    return 0;
}

/* Bus-invert coding (Stan & Burleson) with the paper's zero-skipped
 * variants.  mode: 0 plain, 1 sparse skip lines, 2 encoded mode word.
 * The per-segment recursion matches the vectorized formulation in
 * repro.encoding.bus_invert: toggle when hd > s/2, keep when < s/2,
 * reset polarity to plain on an exact tie. */
i64 bus_invert_stream_cost(const u64 *words, i64 num_blocks, i64 beats,
                           i64 data_wires, i64 segment_bits, i64 mode,
                           i64 *data_flips, i64 *overhead_flips) {
    if (num_blocks <= 0 || beats <= 0 || segment_bits <= 0 ||
        segment_bits > 64 || data_wires % segment_bits ||
        mode < 0 || mode > 2) {
        return 1;
    }
    i64 nseg = data_wires / segment_bits;
    if (mode == 2 && nseg > 39) {
        return 1; /* 3**40 overflows the int64 mode word */
    }
    u64 pow3_table[40];
    pow3_table[0] = 1;
    for (i64 j = 1; j <= nseg && j < 40; j++) {
        pow3_table[j] = pow3_table[j - 1] * 3;
    }
    if (data_wires % 64 == 0 &&
        (segment_bits == 1 || segment_bits == 2 || segment_bits == 4 ||
         segment_bits == 8)) {
        return bus_invert_swar(words, num_blocks, beats, data_wires / 64,
                               segment_bits, mode, pow3_table,
                               data_flips, overhead_flips);
    }
    u64 *held = (u64 *)calloc((size_t)nseg, sizeof(u64));
    u8 *polarity = (u8 *)calloc((size_t)nseg, 1);
    u8 *skip_level = (u8 *)calloc((size_t)nseg, 1);
    if (held == NULL || polarity == NULL || skip_level == NULL) {
        free(held);
        free(polarity);
        free(skip_level);
        return 2;
    }
    u64 prev_mode_word = 0;
    i64 s = segment_bits;
    i64 total_beats = num_blocks * beats;
    for (i64 t = 0; t < total_beats; t++) {
        i64 base = t * data_wires;
        i64 block = t / beats;
        i64 data = 0;
        i64 overhead = 0;
        u64 mode_word = 0;
        /* One branch-free body per mode: the toggle/tie decisions are
         * data-random, so conditional moves beat branches by a wide
         * margin on these loops. */
        if (mode == 0) {
            for (i64 j = 0; j < nseg; j++) {
                u64 w = get_bits(words, base + j * s, s);
                i64 d = POPCOUNT64(w ^ held[j]);
                i64 toggle = (2 * d > s);
                i64 tie = (2 * d == s);
                data += toggle ? s - d : d;
                overhead += toggle | (tie & (i64)polarity[j]);
                polarity[j] = tie ? 0 : (u8)(polarity[j] ^ toggle);
                held[j] = w;
            }
        } else if (mode == 1) {
            for (i64 j = 0; j < nseg; j++) {
                u64 w = get_bits(words, base + j * s, s);
                i64 z = (w == 0);
                i64 d = POPCOUNT64(w ^ held[j]);
                i64 toggle = !z & (2 * d > s);
                i64 tie = (2 * d == s);
                data += z ? 0 : (toggle ? s - d : d);
                /* Line flip on kept segments; the skip line toggles on
                 * every zero<->non-zero level change. */
                overhead += (!z & (toggle | (tie & (i64)polarity[j])))
                          + (z != (i64)skip_level[j]);
                u8 new_pol = tie ? 0 : (u8)(polarity[j] ^ toggle);
                polarity[j] = z ? polarity[j] : new_pol;
                held[j] = z ? held[j] : w;
                skip_level[j] = (u8)z;
            }
        } else {
            for (i64 j = 0; j < nseg; j++) {
                u64 w = get_bits(words, base + j * s, s);
                i64 z = (w == 0);
                i64 d = POPCOUNT64(w ^ held[j]);
                i64 toggle = !z & (2 * d > s);
                i64 tie = (2 * d == s);
                data += z ? 0 : (toggle ? s - d : d);
                u8 new_pol = tie ? 0 : (u8)(polarity[j] ^ toggle);
                polarity[j] = z ? polarity[j] : new_pol;
                held[j] = z ? held[j] : w;
                u64 digit = z ? 2 : (u64)new_pol;
                mode_word += digit * pow3_table[j];
            }
        }
        if (mode == 2) {
            overhead += POPCOUNT64(mode_word ^ prev_mode_word);
            prev_mode_word = mode_word;
        }
        data_flips[block] += data;
        overhead_flips[block] += overhead;
    }
    free(held);
    free(polarity);
    free(skip_level);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Workload assembly: masks, fills, bit expansion, packed emission     */
/* ------------------------------------------------------------------ */

/* Whole-sample block assembly from the generator's raw uniform draws:
 * the mask compares (draw < probability — exact, so byte-identical to
 * the NumPy `<`), null-block / zero-word / zero-chunk masking of the
 * fresh values, the word-copy and repeat-chain fills, and (optionally)
 * both bit views — the unpacked (n, chunks * chunk_bits) 0/1 matrix
 * and the packed little-endian uint64 stream the encoder kernels
 * consume.  The structural clears (word-copy column 0, repeat row 0,
 * null-block rows) happen here, mirroring the NumPy twin exactly. */
i64 block_assemble(const i64 *fresh, const f64 *null_draw,
                   const f64 *zero_word_draw, const f64 *zero_chunk_draw,
                   const f64 *word_copy_draw, const f64 *repeat_draw,
                   f64 p_null_block, f64 p_zero_word, f64 p_zero_chunk,
                   f64 p_word_repeat, f64 p_repeat_chunk,
                   i64 num_blocks, i64 words_per_block, i64 chunks_per_word,
                   i64 chunk_bits,
                   i64 *chunks, u8 *bits_out, u64 *words_out) {
    if (num_blocks <= 0 || words_per_block <= 0 || chunks_per_word <= 0 ||
        chunk_bits <= 0 || chunk_bits > 62) {
        return 1;
    }
    i64 cpb = words_per_block * chunks_per_word;
    i64 *carry = (i64 *)malloc((size_t)cpb * sizeof(i64));
    if (carry == NULL) {
        return 2;
    }
    u64 value_mask = (((u64)1 << chunk_bits) - 1);
    u64 acc = 0;
    i64 acc_bits = 0;
    u64 *wp = words_out;
    for (i64 i = 0; i < num_blocks; i++) {
        const i64 *fr = fresh + i * cpb;
        i64 *row = chunks + i * cpb;
        i64 nb = (null_draw[i] < p_null_block);
        const f64 *zw = zero_word_draw + i * words_per_block;
        const f64 *zc = zero_chunk_draw + i * cpb;
        for (i64 w = 0; w < words_per_block; w++) {
            i64 wz = nb | (zw[w] < p_zero_word);
            i64 *dst = row + w * chunks_per_word;
            const i64 *src = fr + w * chunks_per_word;
            const f64 *zcw = zc + w * chunks_per_word;
            for (i64 c = 0; c < chunks_per_word; c++) {
                dst[c] = (wz | (zcw[c] < p_zero_chunk)) ? 0 : src[c];
            }
        }
        /* Spatial fill: word j copies the (already-propagated) word
         * j-1 — the forward fill of the last kept word.  Word 0 never
         * copies; null blocks are all-zero regardless. */
        const f64 *wc = word_copy_draw + i * words_per_block;
        if (!nb) {
            for (i64 j = 1; j < words_per_block; j++) {
                if (wc[j] < p_word_repeat) {
                    memcpy(row + j * chunks_per_word,
                           row + (j - 1) * chunks_per_word,
                           (size_t)chunks_per_word * sizeof(i64));
                }
            }
        }
        /* Temporal fill: chunk c repeats the last non-repeat value at
         * the same offset (carry[c]).  Row 0 has no history, and null
         * rows ignore their repeat draws but *do* become the history —
         * both reduce to "carry = row". */
        const f64 *rp = repeat_draw + i * cpb;
        if (i == 0 || nb) {
            memcpy(carry, row, (size_t)cpb * sizeof(i64));
        } else {
            for (i64 c = 0; c < cpb; c++) {
                if (rp[c] < p_repeat_chunk) {
                    row[c] = carry[c];
                } else {
                    carry[c] = row[c];
                }
            }
        }
        if (bits_out != NULL) {
            u8 *bits = bits_out + i * cpb * chunk_bits;
            for (i64 c = 0; c < cpb; c++) {
                i64 v = row[c];
                for (i64 b = 0; b < chunk_bits; b++) {
                    bits[c * chunk_bits + b] = (u8)((v >> b) & 1);
                }
            }
        }
        if (words_out != NULL) {
            /* Little-endian bitstream writer: chunk c of block i lands
             * at global bit (i * cpb + c) * chunk_bits, matching
             * _pack_bits on the expanded matrix. */
            for (i64 c = 0; c < cpb; c++) {
                u64 v = ((u64)row[c]) & value_mask;
                acc |= v << acc_bits;
                acc_bits += chunk_bits;
                if (acc_bits >= 64) {
                    *wp++ = acc;
                    acc_bits -= 64;
                    acc = (acc_bits == 0) ? 0 : v >> (chunk_bits - acc_bits);
                }
            }
        }
    }
    if (words_out != NULL && acc_bits > 0) {
        *wp++ = acc;
    }
    free(carry);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Counter-based memory-trace assembly                                 */
/* ------------------------------------------------------------------ */

/* murmur3 fmix64: the shared counter-RNG finalizer (keep identical to
 * repro.kernels.pipeline._mix64). */
static inline u64 mix64(u64 x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

static inline u64 stream_draw(u64 base, u64 stream, u64 i) {
    return mix64(base ^ (stream * 0x9E3779B97F4A7C15ULL) ^
                 (i * 0xBF58476D1CE4E5B9ULL));
}

/* Bucket guide over the top GUIDE_BITS of the draw space: start[b] =
 * number of table entries whose top bits are < b.  Entries in buckets
 * below a draw's bucket are <= it by construction, so the binary
 * search shrinks to the draw's own bucket — O(1) expected for the
 * skewed CDF tables the trace generator uses. */
#define GUIDE_BITS 14
#define GUIDE_SIZE ((i64)1 << GUIDE_BITS)

typedef int32_t i32;

static void build_guide(const u64 *table, i64 len, i32 *start) {
    for (i64 b = 0; b <= GUIDE_SIZE; b++) {
        start[b] = 0;
    }
    for (i64 i = 0; i < len; i++) {
        start[(table[i] >> (64 - GUIDE_BITS)) + 1]++;
    }
    for (i64 b = 0; b < GUIDE_SIZE; b++) {
        start[b + 1] += start[b];
    }
}

/* Mask for power-of-two moduli (the common geometry), -1 otherwise. */
static inline i64 pow2_mask(i64 m) {
    return (m > 0 && (m & (m - 1)) == 0) ? m - 1 : -1;
}

static inline i64 fast_mod(i64 x, i64 m, i64 mask) {
    return (mask >= 0) ? (x & mask) : (x % m);
}

static inline u64 fast_mod_u64(u64 x, u64 m, i64 mask) {
    return (mask >= 0) ? (x & (u64)mask) : (x % m);
}

static inline i64 guided_upper_bound(const u64 *table, const i32 *start,
                                     u64 x) {
    u64 b = x >> (64 - GUIDE_BITS);
    i64 lo = start[b];
    i64 hi = start[b + 1];
    /* Bucket spans are tiny for the skewed tables (usually 0-2); a
     * branchless counting scan avoids the data-dependent mispredicts
     * a binary search pays on every lookup. */
    while (hi - lo > 8) {
        i64 mid = (lo + hi) >> 1;
        if (table[mid] <= x) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    i64 count = lo;
    for (i64 k = lo; k < hi; k++) {
        count += (table[k] <= x);
    }
    return count;
}

/* Streams: 0 switch, 1 fresh thread, 2 kind, 3 rank, 4 write, 5 gap.
 * All float-derived constants (thresholds, CDF tables) are computed
 * once in Python and passed in, so both tiers compare the same
 * integers. */
i64 trace_assemble(u64 base, i64 n, i64 threads,
                   u64 switch_threshold, u64 stream_threshold,
                   u64 shared_threshold, u64 write_threshold,
                   const u64 *rank_table, i64 rank_len,
                   const u64 *gap_table, i64 gap_len,
                   i64 private_blocks, i64 shared_blocks,
                   i64 stream_blocks, i64 stream_region, i64 block_bytes,
                   i64 *addresses, u8 *is_write, i64 *thread_out,
                   i64 *gaps_out) {
    if (n <= 0 || threads <= 0 || shared_blocks <= 0 || stream_blocks <= 0) {
        return 1;
    }
    i64 *stream_counters = (i64 *)calloc((size_t)threads, sizeof(i64));
    if (stream_counters == NULL) {
        return 2;
    }
    i32 *rank_guide = (i32 *)malloc(2 * (size_t)(GUIDE_SIZE + 1) * sizeof(i32));
    if (rank_guide == NULL) {
        free(stream_counters);
        return 2;
    }
    i32 *gap_guide = rank_guide + GUIDE_SIZE + 1;
    build_guide(rank_table, rank_len, rank_guide);
    build_guide(gap_table, gap_len, gap_guide);
    i64 cur_thread = 0;
    i64 stream_base = stream_region;
    i64 private_base = private_blocks;
    i64 thread_mask = pow2_mask(threads);
    i64 stream_mask = pow2_mask(stream_blocks);
    i64 shared_mask = pow2_mask(shared_blocks);
    /* Draws for the unconditional streams are precomputed per tile in
     * a branch-free loop (a pure function of the reference index, so
     * the compiler can vectorize the fmix64 chains); the scalar pass
     * then only runs the sequential burst/stream-counter logic. */
    enum { TRACE_TILE = 512 };
    u64 buf_kind[TRACE_TILE], buf_rank[TRACE_TILE], buf_gap[TRACE_TILE];
    u8 buf_switch[TRACE_TILE];
    for (i64 start = 0; start < n; start += TRACE_TILE) {
        i64 m = n - start;
        if (m > TRACE_TILE) {
            m = TRACE_TILE;
        }
        /* All four index-pure draws in one branch-free loop; the rank
         * draw is computed for every reference (streaming refs discard
         * theirs) because the vectorized fmix64 chain costs far less
         * than a scalar draw on the ~80% that do use it.  is_write is
         * index-pure too, so it lands in the output directly. */
        for (i64 j = 0; j < m; j++) {
            u64 ui = (u64)(start + j);
            buf_switch[j] = (stream_draw(base, 0, ui) >= switch_threshold);
            buf_kind[j] = stream_draw(base, 2, ui);
            buf_rank[j] = stream_draw(base, 3, ui);
            buf_gap[j] = stream_draw(base, 5, ui);
            is_write[start + j] = (stream_draw(base, 4, ui) < write_threshold);
        }
        /* Gaps are index-pure as well; the table search has a
         * data-dependent loop, so it gets its own pass rather than
         * blocking vectorization of the draw loop above. */
        for (i64 j = 0; j < m; j++) {
            i64 gap = guided_upper_bound(gap_table, gap_guide, buf_gap[j]);
            gaps_out[start + j] = (gap < 1) ? 1 : gap;
        }
        for (i64 j = 0; j < m; j++) {
            i64 i = start + j;
            if (i == 0 || buf_switch[j]) {
                cur_thread = (i64)fast_mod_u64(
                    stream_draw(base, 1, (u64)i), (u64)threads, thread_mask);
                stream_base = stream_region + cur_thread * stream_blocks;
                private_base = (1 + cur_thread) * private_blocks;
            }
            thread_out[i] = cur_thread;

            u64 u_kind = buf_kind[j];
            i64 block_index;
            if (u_kind < stream_threshold) {
                i64 offset = fast_mod(stream_counters[cur_thread],
                                      stream_blocks, stream_mask);
                stream_counters[cur_thread]++;
                block_index = stream_base + offset;
            } else {
                i64 rank = guided_upper_bound(rank_table, rank_guide,
                                              buf_rank[j]);
                if (u_kind < shared_threshold) {
                    block_index = fast_mod(rank, shared_blocks, shared_mask);
                } else {
                    block_index = private_base + rank;
                }
            }
            addresses[i] = block_index * block_bytes;
        }
    }
    free(rank_guide);
    free(stream_counters);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Dense group rank                                                    */
/* ------------------------------------------------------------------ */

/* Occurrence index of each element within its group: one counting
 * array over [gmin, gmin + range).  Callers bound `range` so the
 * allocation stays proportional to the input. */
i64 group_rank_dense(const i64 *groups, i64 n, i64 gmin, i64 range,
                     i64 *rank_out) {
    if (n < 0 || range <= 0) {
        return 1;
    }
    i64 *counts = (i64 *)calloc((size_t)range, sizeof(i64));
    if (counts == NULL) {
        return 2;
    }
    for (i64 i = 0; i < n; i++) {
        i64 g = groups[i] - gmin;
        if (g < 0 || g >= range) {
            free(counts);
            return 1;
        }
        rank_out[i] = counts[g]++;
    }
    free(counts);
    return 0;
}
