/* litscreen's compiled kernel: the SGD loop over hierarchical softmax
   that both trainers run (hs_train).

   On x86-64 Linux the library holds two builds of hs_train, a baseline
   (SSE2) one and an AVX2 one, and the dynamic loader picks one by CPUID
   when the library is loaded. Both give the same bits: AVX2 adds no fused
   multiply-add, so with -ffp-contract=off and no -ffast-math each build
   does the same IEEE operations in the same order, only more of them per
   vector. Elsewhere, or where the compiler lacks target_clones, the same
   source builds one plain hs_train. */
#include <math.h>
#include <stdint.h>

/* numpy's logaddexp(0, -sz), for the clipped scores |sz| > 60 */
static double softplus_neg(double sz)
{
    if (sz > 0.0)
        return log1p(exp(-sz));
    return -sz + log1p(exp(sz));
}

/* SGD over hierarchical softmax, shared by skip-gram and PV-DBOW.

   hs_train trains n_items consecutive items. Item i trains row rows[i]
   of centers (row-major, dim columns) against every target in
   targets[lo[i] .. hi[i]), in order; when skip_self is not 0 (skip-gram,
   where item i is the center at position i of targets) it leaves out
   targets[i], the item's own position. Target t's root-to-leaf path is
   path_nodes[path_off[t] .. path_off[t+1]) with the matching +/-1 codes
   in path_signs. Per (center, target) pair every score and gradient is
   taken at the incoming values, the node rows move from the old center,
   then the center moves. The learning rate decays linearly per item,
   where processed counts the items trained before this call:
   max(alpha_min, alpha0 - span * (processed / total)). Nothing here
   checks an index: the caller checks rows, lo, hi and targets first.

   The results are fixed to the bit, not just to rounding. Each score is
   one node's dot product in four lanes: lane r sums k = r, r + 4, ... in
   k order, the lanes add as (a0 + a1) + (a2 + a3), then the dim % 4 tail
   adds in k order, so four chains of adds overlap. Each center-gradient
   entry neu1e[k] takes the path's terms z[j] * node_j[k] one add at a
   time in path (j) order, never pre-summed. The update pass handles four
   path nodes at a time and the last 1-3 one by one, writing the four node
   rows in the same pass as their four neu1e adds. The rows never alias,
   as a Huffman path repeats no node.
   This holds only without FMA contraction (-ffp-contract=off) and without
   reassociation by the compiler (no -ffast-math).

   work must hold (longest path + dim) doubles. Only when loss is not
   NULL is the call's pre-update loss, the sum of log1p(exp(-sz)) over
   every path node of every pair, added to *loss; a NULL loss skips it
   and leaves the vectors bit for bit the same. A clipped node
   (|sz| > 60) adds softplus_neg(sz) directly; the rest go into one
   running product per call, 1 + y = prod (1 + e), as y = y + e + y * e.
   Its terms are all positive, so y stays within about 3 eps per node,
   and it never forms 1 + e, which would round a loss below eps away.
   Whenever y > 1e250, log1p(y) goes into the sum and y back to 0, so
   y * e <= 1e250 * e^60 cannot overflow; the last log1p(y) is taken at
   the end.
   Returns the pair count, or -1 on the first non-finite score, with the
   pairs before it already applied. */
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
__attribute__((target_clones("avx2", "default")))
#endif
#endif
int64_t hs_train(double *restrict centers, double *restrict nodes, int64_t dim,
                 const int64_t *rows, const int64_t *lo, const int64_t *hi,
                 const int64_t *targets, int64_t n_items, int64_t skip_self,
                 const int64_t *path_off, const int64_t *path_nodes,
                 const double *path_signs,
                 double alpha0, double alpha_min, double span,
                 int64_t processed, int64_t total,
                 double *restrict work, double *loss)
{
    double total_loss = loss ? *loss : 0.0;
    double y = 0.0; /* 1 + y: the product of the unclipped nodes' 1 + e since the last fold */
    int64_t pairs = 0;

    for (int64_t i = 0; i < n_items; i++, processed++) {
        double alpha = alpha0 - span * ((double)processed / (double)total);
        if (!(alpha > alpha_min))
            alpha = alpha_min;
        double *restrict c = centers + rows[i] * dim;

        for (int64_t p = lo[i]; p < hi[i]; p++) {
            if (skip_self && p == i)
                continue;
            const int64_t first = path_off[targets[p]];
            const int64_t len = path_off[targets[p] + 1] - first;
            const int64_t *path = path_nodes + first;
            const double *signs = path_signs + first;
            double *restrict z = work, *restrict neu1e = work + len;
            int64_t j;

            for (j = 0; j < len; j++) {
                const double *nd = nodes + path[j] * dim;
                double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
                int64_t k = 0;
                for (; k + 4 <= dim; k += 4) {
                    a0 += nd[k] * c[k];
                    a1 += nd[k + 1] * c[k + 1];
                    a2 += nd[k + 2] * c[k + 2];
                    a3 += nd[k + 3] * c[k + 3];
                }
                double zj = (a0 + a1) + (a2 + a3);
                for (; k < dim; k++)
                    zj += nd[k] * c[k];
                z[j] = zj;
            }

            /* z[j] becomes node j's gradient; exp(-clipped) serves both it
               and the loss: an unclipped node's log1p(e) goes into y as the
               factor 1 + e, a clipped one's softplus_neg(sz) into the sum */
            for (j = 0; j < len; j++) {
                if (!isfinite(z[j]))
                    return -1;
                double sz = signs[j] * z[j];
                double clipped = sz < -60.0 ? -60.0 : (sz > 60.0 ? 60.0 : sz);
                double e = exp(-clipped);
                if (loss) {
                    if (sz == clipped) {
                        y = y + e + y * e;
                        if (y > 1e250) {
                            total_loss += log1p(y);
                            y = 0.0;
                        }
                    } else {
                        total_loss += softplus_neg(sz);
                    }
                }
                z[j] = signs[j] * (1.0 - 1.0 / (1.0 + e));
            }

            /* neu1e gathers the center's gradient from each node row
               before that row moves */
            for (int64_t k = 0; k < dim; k++)
                neu1e[k] = 0.0;
            for (j = 0; j + 4 <= len; j += 4) {
                double *restrict n0 = nodes + path[j] * dim;
                double *restrict n1 = nodes + path[j + 1] * dim;
                double *restrict n2 = nodes + path[j + 2] * dim;
                double *restrict n3 = nodes + path[j + 3] * dim;
                const double g0 = z[j], g1 = z[j + 1], g2 = z[j + 2], g3 = z[j + 3];
                for (int64_t k = 0; k < dim; k++) {
                    const double o0 = n0[k], o1 = n1[k], o2 = n2[k], o3 = n3[k];
                    double e = neu1e[k];
                    e += g0 * o0;
                    e += g1 * o1;
                    e += g2 * o2;
                    e += g3 * o3;
                    neu1e[k] = e;
                    n0[k] = o0 + alpha * (g0 * c[k]);
                    n1[k] = o1 + alpha * (g1 * c[k]);
                    n2[k] = o2 + alpha * (g2 * c[k]);
                    n3[k] = o3 + alpha * (g3 * c[k]);
                }
            }
            for (; j < len; j++) {
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
            pairs++;
        }
    }
    if (loss)
        *loss = total_loss + log1p(y);
    return pairs;
}
