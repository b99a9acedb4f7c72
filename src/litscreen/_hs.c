/* SGD over hierarchical softmax, shared by skip-gram and PV-DBOW.

   Trains a block of n_items consecutive items. Item i trains row rows[i]
   of centers (row-major, dim columns) against every target in
   targets[offsets[i] .. offsets[i+1]). Target t's root-to-leaf path is
   path_nodes[path_off[t] .. path_off[t+1]) with the matching +/-1 codes
   in path_signs. Per (center, target) pair this does what
   embedding.hs_step does: every score and gradient is taken at the
   incoming values, the node rows move from the old center, then the
   center moves. The learning rate decays linearly per item, where
   processed counts the items trained before this block:
   max(alpha_min, alpha0 - span * (processed / total)).

   work must hold (longest path + dim) doubles. Each pair's pre-update
   loss is added to *loss in pair order. Returns the pair count, or -1 on
   the first non-finite score, with the pairs before it already applied. */
#include <math.h>
#include <stdint.h>

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

int64_t hs_train(double *centers, double *nodes, int64_t dim,
                 const int64_t *rows, const int64_t *offsets,
                 const int64_t *targets, int64_t n_items,
                 const int64_t *path_off, const int64_t *path_nodes,
                 const double *path_signs,
                 double alpha0, double alpha_min, double span,
                 int64_t processed, int64_t total,
                 double *work, double *loss)
{
    double total_loss = *loss;
    int64_t pairs = 0;

    for (int64_t i = 0; i < n_items; i++, processed++) {
        double alpha = alpha0 - span * ((double)processed / (double)total);
        if (!(alpha > alpha_min))
            alpha = alpha_min;
        double *c = centers + rows[i] * dim;

        for (int64_t p = offsets[i]; p < offsets[i + 1]; p++) {
            const int64_t first = path_off[targets[p]];
            const int64_t len = path_off[targets[p] + 1] - first;
            const int64_t *path = path_nodes + first;
            const double *signs = path_signs + first;
            double *g = work, *neu1e = work + len;
            double pair_loss = 0.0;

            for (int64_t j = 0; j < len; j++) {
                const double *nd = nodes + path[j] * dim;
                double z = 0.0;
                for (int64_t k = 0; k < dim; k++)
                    z += nd[k] * c[k];
                if (!isfinite(z))
                    return -1;
                double sz = signs[j] * z;
                double clipped = sz < -60.0 ? -60.0 : (sz > 60.0 ? 60.0 : sz);
                pair_loss += softplus_neg(sz);
                g[j] = signs[j] * (1.0 - 1.0 / (1.0 + exp(-clipped)));
            }
            for (int64_t k = 0; k < dim; k++)
                neu1e[k] = 0.0;
            for (int64_t j = 0; j < len; j++) {
                const double *nd = nodes + path[j] * dim;
                for (int64_t k = 0; k < dim; k++)
                    neu1e[k] += g[j] * nd[k];
            }
            for (int64_t j = 0; j < len; j++) {
                double *nd = nodes + path[j] * dim;
                for (int64_t k = 0; k < dim; k++)
                    nd[k] += alpha * (g[j] * c[k]);
            }
            for (int64_t k = 0; k < dim; k++)
                c[k] += alpha * neu1e[k];
            total_loss += pair_loss;
            pairs++;
        }
    }
    *loss = total_loss;
    return pairs;
}
