/* litscreen's compiled kernel: the SGD loop over hierarchical softmax
   that both trainers run (hs_train), and the selection stage's top-2 PCA
   (pca_top2) and farthest-point order (fps_order).

   On x86-64 Linux the library holds two builds of hs_train and of
   fps_order, a baseline (SSE2) one and an AVX2 one, and the dynamic loader
   picks one by CPUID when the library is loaded. Both give the same bits:
   AVX2 adds no fused multiply-add, so with -ffp-contract=off and no
   -ffast-math each build does the same IEEE operations in the same order,
   only more of them per vector. Elsewhere, or where the compiler lacks
   target_clones, the same source builds one plain function of each. No
   function calls BLAS, so no result depends on the BLAS numpy loaded. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* The baseline and AVX2 builds of a function, on x86-64 Linux where the
   compiler has target_clones; one plain build elsewhere. A static function
   that a clone calls must be always_inline: GCC 12 does not inline a plain
   one into a clone, whose AVX2 code would then call SSE code. */
#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define ISA_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef ISA_CLONES
#define ISA_CLONES
#endif

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
   max(alpha_min, alpha0 - (alpha0 - alpha_min) * (processed / total)),
   from alpha0 at processed = 0 to alpha_min at total. Nothing here
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
   and leaves the vectors bit for bit the same. A clipped node (|sz| > 60)
   adds numpy's logaddexp(0, -sz) directly; the rest go into one running
   product per call, 1 + y = prod (1 + e), as y = y + e + y * e.
   Its terms are all positive, so y stays within about 3 eps per node,
   and it never forms 1 + e, which would round a loss below eps away.
   Whenever y > 1e250, log1p(y) goes into the sum and y back to 0, so
   y * e <= 1e250 * e^60 cannot overflow; the last log1p(y) is taken at
   the end.
   Returns the pair count, or -1 on the first non-finite score, with the
   pairs before it already applied. */
ISA_CLONES int64_t hs_train(double *restrict centers, double *restrict nodes, int64_t dim,
                 const int64_t *rows, const int64_t *lo, const int64_t *hi,
                 const int64_t *targets, int64_t n_items, int64_t skip_self,
                 const int64_t *path_off, const int64_t *path_nodes,
                 const double *path_signs,
                 double alpha0, double alpha_min,
                 int64_t processed, int64_t total,
                 double *restrict work, double *loss)
{
    const double span = alpha0 - alpha_min;
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
               factor 1 + e, a clipped one's logaddexp(0, -sz) into the sum */
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
                        total_loss += sz > 0.0 ? log1p(exp(-sz)) : -sz + log1p(exp(sz));
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

/* The selection stage. Every sum below runs in index order, with no FMA
   contraction and no reassociation, as hs_train's do. */

/* sqrt(a^2 + b^2) without destructive overflow or underflow */
static double pythag(double a, double b)
{
    const double absa = fabs(a), absb = fabs(b);
    if (absa > absb) {
        const double q = absb / absa;
        return absa * sqrt(1.0 + q * q);
    }
    if (absb == 0.0)
        return 0.0;
    const double q = absa / absb;
    return absb * sqrt(1.0 + q * q);
}

/* Householder reduction of the symmetric m x m matrix a, of which only the
   lower triangle is read, to tridiagonal form: diagonal d, subdiagonal
   e[1 .. m-1] with e[0] = 0. a is replaced by the orthogonal matrix of the
   reduction (Numerical Recipes' tred2, indexed from 0). */
static void tridiagonalize(double *a, int64_t m, double *d, double *e)
{
#define A(i, j) a[(i) * m + (j)]
    for (int64_t i = m - 1; i > 0; i--) {
        const int64_t l = i - 1;
        double h = 0.0;
        if (l > 0) {
            double scale = 0.0;
            for (int64_t k = 0; k <= l; k++)
                scale += fabs(A(i, k));
            if (scale == 0.0) {
                e[i] = A(i, l);
            } else {
                for (int64_t k = 0; k <= l; k++) {
                    A(i, k) /= scale;
                    h += A(i, k) * A(i, k);
                }
                double f = A(i, l);
                double g = f >= 0.0 ? -sqrt(h) : sqrt(h);
                e[i] = scale * g;
                h -= f * g;
                A(i, l) = f - g;
                f = 0.0;
                for (int64_t j = 0; j <= l; j++) {
                    A(j, i) = A(i, j) / h;
                    g = 0.0;
                    for (int64_t k = 0; k <= j; k++)
                        g += A(j, k) * A(i, k);
                    for (int64_t k = j + 1; k <= l; k++)
                        g += A(k, j) * A(i, k);
                    e[j] = g / h;
                    f += e[j] * A(i, j);
                }
                const double hh = f / (h + h);
                for (int64_t j = 0; j <= l; j++) {
                    f = A(i, j);
                    e[j] = g = e[j] - hh * f;
                    for (int64_t k = 0; k <= j; k++)
                        A(j, k) -= (f * e[k] + g * A(i, k));
                }
            }
        } else {
            e[i] = A(i, l);
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for (int64_t i = 0; i < m; i++) {
        if (d[i] != 0.0) {
            for (int64_t j = 0; j < i; j++) {
                double g = 0.0;
                for (int64_t k = 0; k < i; k++)
                    g += A(i, k) * A(k, j);
                for (int64_t k = 0; k < i; k++)
                    A(k, j) -= g * A(k, i);
            }
        }
        d[i] = A(i, i);
        A(i, i) = 1.0;
        for (int64_t j = 0; j < i; j++)
            A(j, i) = A(i, j) = 0.0;
    }
#undef A
}

/* The eigenvalues (into d) and eigenvectors of the tridiagonal matrix
   (d, e) from tridiagonalize, by QL with implicit shifts (Numerical
   Recipes' tqli, indexed from 0). z enters as the reduction's matrix and
   leaves with column k the eigenvector of d[k]. Returns 0, or -1 when an
   eigenvalue takes more than 60 iterations (non-finite input never
   converges). */
static int tql_implicit(double *d, double *e, int64_t m, double *z)
{
    for (int64_t i = 1; i < m; i++)
        e[i - 1] = e[i];
    e[m - 1] = 0.0;
    for (int64_t l = 0; l < m; l++) {
        int iter = 0;
        int64_t n;
        do {
            for (n = l; n < m - 1; n++) {
                const double dd = fabs(d[n]) + fabs(d[n + 1]);
                if (fabs(e[n]) + dd == dd)
                    break;
            }
            if (n != l) {
                if (iter++ == 60)
                    return -1;
                double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                double r = pythag(g, 1.0);
                g = d[n] - d[l] + e[l] / (g + (g >= 0.0 ? r : -r));
                double s = 1.0, c = 1.0, p = 0.0;
                int64_t i;
                for (i = n - 1; i >= l; i--) {
                    double f = s * e[i];
                    const double b = c * e[i];
                    e[i + 1] = r = pythag(f, g);
                    if (r == 0.0) {
                        d[i + 1] -= p;
                        e[n] = 0.0;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    d[i + 1] = g + (p = s * r);
                    g = c * r - b;
                    for (int64_t k = 0; k < m; k++) {
                        f = z[k * m + i + 1];
                        z[k * m + i + 1] = s * z[k * m + i] + c * f;
                        z[k * m + i] = c * z[k * m + i] - s * f;
                    }
                }
                if (r == 0.0 && i >= l)
                    continue;
                d[l] -= p;
                e[l] = g;
                e[n] = 0.0;
            }
        } while (n != l);
    }
    return 0;
}

/* v (d entries) scaled to unit length, less its part along the unit vector
   u first when u is not NULL. Where nothing of v is left, v becomes the
   axis along which u is smallest (the first such), made orthogonal to u. */
static void unit_vector(double *v, const double *u, int64_t d)
{
    double s = 0.0;
    if (u) {
        double p = 0.0;
        for (int64_t k = 0; k < d; k++)
            p += u[k] * v[k];
        for (int64_t k = 0; k < d; k++)
            v[k] -= p * u[k];
    }
    for (int64_t k = 0; k < d; k++)
        s += v[k] * v[k];
    if (s == 0.0 && u) {
        int64_t j = 0;
        for (int64_t k = 1; k < d; k++)
            if (fabs(u[k]) < fabs(u[j]))
                j = k;
        for (int64_t k = 0; k < d; k++)
            v[k] = -u[j] * u[k];
        v[j] += 1.0;
        for (int64_t k = 0; k < d; k++)
            s += v[k] * v[k];
    }
    s = sqrt(s);
    for (int64_t k = 0; k < d; k++)
        v[k] /= s;
}

/* The top two principal components of the n x d row-major matrix x, whose
   column means are mean, for n >= 2 and d >= 2.

   The Gram matrix of the centred rows is formed on the smaller side,
   m = min(n, d), one outer product at a time, centring each entry as it
   is read, so no centred copy of x is made: the d x d matrix Xc' Xc when
   d <= n, summed over the rows, else the n x n matrix Xc Xc', summed over
   the columns. Its eigenpairs come from tridiagonalize and tql_implicit.
   On the d side the top two eigenvectors are the components; on the n side
   an eigenvector u gives the component Xc' u, the second one made
   orthogonal to the first, each scaled to unit length (unit_vector). Ties
   between eigenvalues go to the lower index. Each component's
   largest-magnitude entry (the first such) is made positive. variance[c]
   is the component's eigenvalue, floored at 0, over n - 1, and row i of
   points (n x 2) is row i of Xc times each component.

   work holds m * m + 3 * m doubles. Returns 0; 1 when the top eigenvalue
   is not positive (all rows alike); 2 when the Gram matrix is not finite;
   3 when the QL iteration does not converge. */
int64_t pca_top2(const double *x, const double *mean, int64_t n, int64_t d,
                 double *components, double *variance, double *points, double *work)
{
    const int on_rows = d <= n;
    const int64_t m = on_rows ? d : n, other = on_rows ? n : d;
    double *g = work, *eigval = work + m * m, *off = eigval + m, *r = off + m;

    for (int64_t a = 0; a < m * m; a++)
        g[a] = 0.0;
    for (int64_t t = 0; t < other; t++) {
        for (int64_t a = 0; a < m; a++)
            r[a] = on_rows ? x[t * d + a] - mean[a] : x[a * d + t] - mean[t];
        for (int64_t a = 0; a < m; a++) {
            const double ra = r[a];
            double *ga = g + a * m;
            for (int64_t b = 0; b <= a; b++)
                ga[b] += ra * r[b];
        }
    }
    double trace = 0.0;
    for (int64_t a = 0; a < m; a++)
        trace += g[a * m + a];
    if (!isfinite(trace))
        return 2;
    tridiagonalize(g, m, eigval, off);
    if (tql_implicit(eigval, off, m, g) != 0)
        return 3;

    int64_t top[2] = {0, -1};
    for (int64_t a = 1; a < m; a++)
        if (eigval[a] > eigval[top[0]])
            top[0] = a;
    if (!(eigval[top[0]] > 0.0))
        return 1;
    for (int64_t a = 0; a < m; a++)
        if (a != top[0] && (top[1] < 0 || eigval[a] > eigval[top[1]]))
            top[1] = a;

    for (int c = 0; c < 2; c++) {
        double *v = components + c * d;
        const int64_t col = top[c];
        if (on_rows) {
            for (int64_t k = 0; k < d; k++)
                v[k] = g[k * m + col];
        } else {
            for (int64_t k = 0; k < d; k++)
                v[k] = 0.0;
            for (int64_t a = 0; a < n; a++) {
                const double u = g[a * m + col];
                const double *xa = x + a * d;
                for (int64_t k = 0; k < d; k++)
                    v[k] += (xa[k] - mean[k]) * u;
            }
            unit_vector(v, c ? components : NULL, d);
        }
        int64_t pivot = 0;
        for (int64_t k = 1; k < d; k++)
            if (fabs(v[k]) > fabs(v[pivot]))
                pivot = k;
        if (v[pivot] < 0.0)
            for (int64_t k = 0; k < d; k++)
                v[k] = -v[k];
        variance[c] = (eigval[col] > 0.0 ? eigval[col] : 0.0) / (double)(n - 1);
    }

    for (int64_t i = 0; i < n; i++) {
        const double *xi = x + i * d;
        double p0 = 0.0, p1 = 0.0;
        for (int64_t k = 0; k < d; k++) {
            const double c = xi[k] - mean[k];
            p0 += c * components[k];
            p1 += c * components[d + k];
        }
        points[2 * i] = p0;
        points[2 * i + 1] = p1;
    }
    return 0;
}

/* A double and its bits, for the selects the vectorizer can take. */
typedef union {
    double f;
    int64_t i;
} bits64;

/* Greedy farthest-point order in cosine distance over the points
   (x[i], y[i]), i < n_points: indices[0] = start, and each later pick is
   the point whose minimum distance to the picks before it is largest,
   which distances[p] receives (distances[0] is NaN).

   The distance from point i to point j is
   1 - (x[i] * x[j] + y[i] * y[j]) / (norm[i] * norm[j]), with
   norm = sqrt(x * x + y * y), in exactly those IEEE operations, or 0 where
   either norm is 0. A picked point's minimum is -inf. The minimum and the
   argmax follow numpy's np.minimum and np.argmax: a NaN on either side
   gives NaN, and the pick is the first maximum, a NaN before any number.
   The minimum takes its operands by bit masks, with no branch, so that
   the AVX2 build runs four points per instruction; the bits are the same.
   work holds 2 * n_points doubles; start < n_points and 1 <= n <= n_points
   are the caller's to check. */
ISA_CLONES void fps_order(const double *restrict x, const double *restrict y,
                          int64_t n_points, int64_t start, int64_t n,
                          int64_t *restrict indices, double *restrict distances,
                          double *restrict work)
{
    double *restrict norm = work, *restrict mind = work + n_points;
    for (int64_t i = 0; i < n_points; i++) {
        norm[i] = sqrt(x[i] * x[i] + y[i] * y[i]);
        mind[i] = INFINITY;
    }
    int64_t j = start;
    indices[0] = start;
    distances[0] = NAN;
    for (int64_t p = 1;; p++) {
        const double xj = x[j], yj = y[j], nj = norm[j];
        const int64_t live = nj != 0.0 ? -1 : 0; /* every distance is 0 from a zero norm */
        for (int64_t i = 0; i < n_points; i++) {
            bits64 dist = {1.0 - (x[i] * xj + y[i] * yj) / (norm[i] * nj)}, was = {mind[i]};
            dist.i &= live & -(int64_t)(norm[i] != 0.0);
            const int64_t take = -(int64_t)((dist.f < was.f) | (dist.f != dist.f));
            was.i = (dist.i & take) | (was.i & ~take);
            mind[i] = was.f;
        }
        mind[j] = -INFINITY;
        if (p == n)
            break;
        double best = mind[0];
        j = 0;
        if (!isnan(best))
            for (int64_t i = 1; i < n_points; i++) {
                const double m = mind[i];
                if (m > best) {
                    best = m;
                    j = i;
                } else if (isnan(m)) {
                    best = m;
                    j = i;
                    break;
                }
            }
        indices[p] = j;
        distances[p] = best;
    }
}
