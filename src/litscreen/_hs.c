/* litscreen's compiled kernels: the SGD loop over hierarchical softmax
   that both trainers run (hs_train), and the text codec of the rows of
   .vec/.dvec matrix files (format_rows, parse_row). */
#define _POSIX_C_SOURCE 200809L
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

#define LOGE2 0.693147180559945309417232121458176568

/* numpy's logaddexp(0, -sz) */
static double softplus_neg(double sz)
{
    if (sz == 0.0)
        return LOGE2;
    if (sz > 0.0)
        return log1p(exp(-sz));
    return -sz + log1p(exp(sz));
}

/* SGD over hierarchical softmax, shared by skip-gram and PV-DBOW.

   hs_train trains a block of n_items consecutive items. Item i trains
   row rows[i] of centers (row-major, dim columns) against every target
   in targets[offsets[i] .. offsets[i+1]). Target t's root-to-leaf path is
   path_nodes[path_off[t] .. path_off[t+1]) with the matching +/-1 codes
   in path_signs. Per (center, target) pair every score and gradient is
   taken at the incoming values, the node rows move from the old center,
   then the center moves. The learning rate decays linearly per item,
   where processed counts the items trained before this block:
   max(alpha_min, alpha0 - span * (processed / total)).

   The results are fixed to the bit, not just to rounding: each score is
   one node's dot product summed in k order. Four nodes are scored in one
   pass, but the interleave runs across nodes only, never within one sum,
   so the adds of four chains overlap while each chain keeps its order.
   This holds only without FMA contraction (-ffp-contract=off) and without
   reassociation (no -ffast-math).

   work must hold (longest path + dim) doubles. Only when loss is not
   NULL is each pair's pre-update loss added to *loss in pair order; a
   NULL loss skips the log1p and leaves the vectors bit for bit the same.
   Returns the pair count, or -1 on the first non-finite score, with the
   pairs before it already applied. */
int64_t hs_train(double *restrict centers, double *restrict nodes, int64_t dim,
                 const int64_t *rows, const int64_t *offsets,
                 const int64_t *targets, int64_t n_items,
                 const int64_t *path_off, const int64_t *path_nodes,
                 const double *path_signs,
                 double alpha0, double alpha_min, double span,
                 int64_t processed, int64_t total,
                 double *restrict work, double *loss)
{
    double total_loss = loss ? *loss : 0.0;
    int64_t pairs = 0;

    for (int64_t i = 0; i < n_items; i++, processed++) {
        double alpha = alpha0 - span * ((double)processed / (double)total);
        if (!(alpha > alpha_min))
            alpha = alpha_min;
        double *restrict c = centers + rows[i] * dim;

        for (int64_t p = offsets[i]; p < offsets[i + 1]; p++) {
            const int64_t first = path_off[targets[p]];
            const int64_t len = path_off[targets[p] + 1] - first;
            const int64_t *path = path_nodes + first;
            const double *signs = path_signs + first;
            double *restrict z = work, *restrict neu1e = work + len;
            int64_t j = 0;

            for (; j + 4 <= len; j += 4) {
                const double *n0 = nodes + path[j] * dim;
                const double *n1 = nodes + path[j + 1] * dim;
                const double *n2 = nodes + path[j + 2] * dim;
                const double *n3 = nodes + path[j + 3] * dim;
                double z0 = 0.0, z1 = 0.0, z2 = 0.0, z3 = 0.0;
                for (int64_t k = 0; k < dim; k++) {
                    z0 += n0[k] * c[k];
                    z1 += n1[k] * c[k];
                    z2 += n2[k] * c[k];
                    z3 += n3[k] * c[k];
                }
                z[j] = z0;
                z[j + 1] = z1;
                z[j + 2] = z2;
                z[j + 3] = z3;
            }
            for (; j < len; j++) {
                const double *nd = nodes + path[j] * dim;
                double zj = 0.0;
                for (int64_t k = 0; k < dim; k++)
                    zj += nd[k] * c[k];
                z[j] = zj;
            }

            /* z[j] becomes node j's gradient; exp(-clipped) serves both it
               and the loss log1p(exp(-sz)), which is softplus_neg(sz)
               exactly for 0 < sz <= 60 and within rounding for -60 <= sz < 0 */
            double pair_loss = 0.0;
            for (j = 0; j < len; j++) {
                if (!isfinite(z[j]))
                    return -1;
                double sz = signs[j] * z[j];
                double clipped = sz < -60.0 ? -60.0 : (sz > 60.0 ? 60.0 : sz);
                double e = exp(-clipped);
                if (loss)
                    pair_loss += (sz == clipped && sz != 0.0) ? log1p(e) : softplus_neg(sz);
                z[j] = signs[j] * (1.0 - 1.0 / (1.0 + e));
            }

            /* neu1e gathers the center's gradient from each node row
               before that row moves */
            for (int64_t k = 0; k < dim; k++)
                neu1e[k] = 0.0;
            for (j = 0; j < len; j++) {
                double *restrict nd = nodes + path[j] * dim;
                const double g = z[j];
                for (int64_t k = 0; k < dim; k++) {
                    const double old = nd[k];
                    neu1e[k] += g * old;
                    nd[k] = old + alpha * (g * c[k]);
                }
            }
            for (int64_t k = 0; k < dim; k++)
                c[k] += alpha * neu1e[k];
            total_loss += pair_loss;
            pairs++;
        }
    }
    if (loss)
        *loss = total_loss;
    return pairs;
}

/* The matrix text codec. glibc's snprintf and strtod follow the calling
   thread's LC_NUMERIC, which a host program may have set to a locale
   with a decimal comma; Python's float formatting and float() never read
   the locale. So each call runs under the C locale and then restores the
   caller's. */

/* Longest %.17g text of a double, -1.2345678901234567e-308, plus the
   separator after it. */
#define VALUE_BYTES 25

/* Writes rows [0, n_rows) of a row-major (n_rows, dim) matrix as text:
   each value as %.17g, which prints every finite double exactly as
   Python's f"{x:.17g}" does, values separated by one space and each row
   ended by '\n'. ends[i] receives the offset in buf just past row i.
   Returns the number of rows written, which is less than n_rows when row
   [returned count] holds a non-finite value; -1 when dim < 1, when cap
   is under n_rows * dim * VALUE_BYTES or when the C locale cannot be
   made. */
int64_t format_rows(const double *values, int64_t n_rows, int64_t dim,
                    char *buf, int64_t cap, int64_t *ends)
{
    if (dim < 1 || cap < n_rows * dim * VALUE_BYTES)
        return -1;
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (!c_locale)
        return -1;
    locale_t caller = uselocale(c_locale);
    char *p = buf;
    int64_t i;

    for (i = 0; i < n_rows; i++) {
        const double *row = values + i * dim;
        int64_t k;
        for (k = 0; k < dim && isfinite(row[k]); k++) {
            p += snprintf(p, VALUE_BYTES, "%.17g", row[k]);
            *p++ = ' ';
        }
        if (k < dim)
            break;
        p[-1] = '\n';
        ends[i] = p - buf;
    }
    uselocale(caller);
    freelocale(c_locale);
    return i;
}

static int is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f';
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* Length of the plain decimal number that starts at s: an optional sign,
   digits with an optional fraction (one digit at least) and an optional
   exponent. 0 when s does not start with one. */
static int64_t decimal_len(const char *s, const char *end)
{
    const char *p = s;
    int digits = 0;

    if (p < end && (*p == '+' || *p == '-'))
        p++;
    for (; p < end && is_digit(*p); p++)
        digits = 1;
    if (p < end && *p == '.')
        for (p++; p < end && is_digit(*p); p++)
            digits = 1;
    if (!digits)
        return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        const char *e = p + 1;
        if (e < end && (*e == '+' || *e == '-'))
            e++;
        if (e < end && is_digit(*e)) {
            while (e < end && is_digit(*e))
                e++;
            p = e;
        }
    }
    return p - s;
}

/* Whether s[0..len) is a signed or unsigned inf, infinity or nan, in any
   case: the non-finite spellings Python's float() accepts. */
static int is_non_finite_word(const char *s, int64_t len)
{
    static const char *const words[] = {"inf", "infinity", "nan"};
    if (len && (*s == '+' || *s == '-'))
        s++, len--;
    for (int w = 0; w < 3; w++) {
        int64_t k = 0;
        while (k < len && words[w][k] && (s[k] | 0x20) == words[w][k])
            k++;
        if (k == len && !words[w][k])
            return 1;
    }
    return 0;
}

/* Parses the fields of text[0..len), separated by runs of ASCII
   whitespace, into out[0..dim). text[len] must be a NUL byte, as it is in
   a Python bytes object passed as c_char_p. A field is converted with
   strtod, which rounds correctly as Python's float() does, only when it
   is a plain decimal number, so hex floats, nan payloads and digit
   separators such as 1_0 are refused.
   Returns dim when there are exactly dim fields and all are finite
   numbers. Otherwise returns the field count when it is not dim, else -1
   when a field is not a number, else -2 when a field is nan or infinite
   or overflows to infinity, and -3 when the C locale cannot be made. */
int64_t parse_row(const char *text, int64_t len, double *out, int64_t dim)
{
    locale_t c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    if (!c_locale)
        return -3;
    locale_t caller = uselocale(c_locale);
    const char *p = text, *end = text + len;
    int64_t count = 0;
    int unparsable = 0, non_finite = 0;

    for (;;) {
        while (p < end && is_space(*p))
            p++;
        if (p == end)
            break;
        const char *q = p;
        while (q < end && !is_space(*q))
            q++;
        if (count < dim && !unparsable) {
            if (decimal_len(p, q) == q - p) {
                out[count] = strtod(p, NULL);
                non_finite |= !isfinite(out[count]);
            } else if (is_non_finite_word(p, q - p)) {
                non_finite = 1;
            } else {
                unparsable = 1;
            }
        }
        count++;
        p = q;
    }
    uselocale(caller);
    freelocale(c_locale);
    if (count != dim)
        return count;
    return unparsable ? -1 : (non_finite ? -2 : dim);
}
