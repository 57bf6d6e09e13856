/* The compiled loops of dissim: the dual QP of
   wsolver._qp_coordinate_ascent and the SSD steps of thetasolver.ssd_theta.

   Each function makes the IEEE operations of its Python loop
   (wsolver._qp_python, thetasolver._ssd_python), in the same order, so
   both return the same bits.  That holds only while the compiler neither
   fuses a*b+c into one rounding (build with -ffp-contract=off) nor
   reorders a sum (no -ffast-math), and while doubles are IEEE binary64
   without excess precision.  dissim._kernel builds and loads this file;
   see its docstring.
*/

/* numpy's pairwise sum of a float64 vector: fewer than 8 values in
   order; up to 128 values in 8 interleaved accumulators, combined as a
   tree, then the remainder in order; more than 128 as two halves (the
   first a multiple of 8 long), each summed the same way. */
static double pairwise_sum(const double *a, long n)
{
    if (n < 8) {
        double total = 0.0;
        for (long i = 0; i < n; i++)
            total += a[i];
        return total;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        long stop = n - n % 8;
        for (long i = 8; i < stop; i += 8) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (long i = stop; i < n; i++)
            total += a[i];
        return total;
    }
    long half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* float(np.sum(a[:n])), bit for bit. */
double dissim_qp_sum(const double *a, long n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* At most `passes` passes of coordinate ascent on
       max  b . a - a^T G a / 2   over a >= 0, sum(a) <= C,
   G an m x m row-major matrix.  a is updated in place, and q holds
   G @ a on entry (the caller's BLAS product) and is kept equal to the
   Python loop's q.  Returns 1 once a pass moves no coordinate by more
   than tol, 0 when the passes run out. */
int dissim_qp_ascent(long m, const double *G, const double *b, double C,
                     double *a, double *q, double tol, long passes)
{
    double total = dissim_qp_sum(a, m);
    for (long pass = 0; pass < passes; pass++) {
        double biggest = 0.0;
        for (long j = 0; j < m; j++) {
            double aj = a[j];
            double slope = b[j] - q[j];
            double budget = (C - total) + aj;
            double gjj = G[j * m + j];
            double new;
            if (gjj > 0.0)
                new = aj + slope / gjj;
            else
                new = slope > 0.0 ? budget : 0.0;
            /* min(max(new, 0.0), budget), keeping the first argument on ties */
            if (new < 0.0)
                new = 0.0;
            if (budget < new)
                new = budget;
            double delta = new - aj;
            if (delta != 0.0) {
                a[j] = new;
                total = dissim_qp_sum(a, m);
                for (long i = 0; i < m; i++)
                    q[i] = q[i] + delta * G[i * m + j];
                double size = delta < 0.0 ? -delta : delta;
                if (size > biggest)
                    biggest = size;
            }
        }
        if (total >= C * (1.0 - 1e-12)) {
            for (long j = 0; j < m; j++) {
                /* a[j] and its residual b[j] - q[j] live in locals for the
                   row; a[j] is written back at the row's end */
                double aj = a[j];
                double rj = b[j] - q[j];
                for (long l = 0; l < j; l++) {
                    double denom = (G[j * m + j] - 2.0 * G[j * m + l]) + G[l * m + l];
                    double slope = rj - (b[l] - q[l]);
                    double al = a[l];
                    double delta;
                    if (denom > 0.0)
                        delta = slope / denom;
                    else
                        delta = slope > 0.0 ? al : -aj;
                    /* min(max(delta, -a[j]), a[l]), as above */
                    if (-aj > delta)
                        delta = -aj;
                    if (al < delta)
                        delta = al;
                    if (delta != 0.0) {
                        aj += delta;
                        a[l] = al - delta;
                        for (long i = 0; i < m; i++)
                            q[i] = q[i] + delta * (G[i * m + j] - G[i * m + l]);
                        rj = b[j] - q[j];
                        double size = delta < 0.0 ? -delta : delta;
                        if (size > biggest)
                            biggest = size;
                    }
                }
                a[j] = aj;
            }
            total = dissim_qp_sum(a, m);
        }
        if (biggest <= tol)
            return 1;
    }
    return 0;
}

/* The SSD steps call the functions numpy itself calls: its BLAS's
   cblas_dgemv for every matrix-vector product and its float64 loop of
   np.exp, read from the ufunc.  A reimplementation would not do: a plain
   dot product or libm's exp rounds apart from them.  So this half needs
   numpy's and Python's headers; without them only the QP is built. */
#if defined(__has_include)
#if __has_include(<Python.h>) && __has_include(<numpy/ufuncobject.h>)
#define DISSIM_SSD 1
#endif
#endif

#ifdef DISSIM_SSD
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/ndarraytypes.h>
#include <numpy/ufuncobject.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* cblas_dgemv with 64-bit integers, as numpy's ILP64 BLAS exports it */
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n,
                         double alpha, const double *a, int64_t lda,
                         const double *x, int64_t incx, double beta,
                         double *y, int64_t incy);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

static dgemv_fn dgemv;
static PyUFuncGenericFunction exp_loop;
static void *exp_data;

/* Use this cblas_dgemv and the first float64 loop of the ufunc exp (the
   one np.exp runs on a float64 array).  Returns 1, or 0 when exp has no
   such loop. */
int dissim_ssd_bind(PyObject *exp, void *blas_dgemv)
{
    PyUFuncObject *ufunc = (PyUFuncObject *)exp;
    if (ufunc->nin != 1 || ufunc->nout != 1)
        return 0;
    for (int i = 0; i < ufunc->ntypes; i++) {
        if (ufunc->types[2 * i] == NPY_DOUBLE
            && ufunc->types[2 * i + 1] == NPY_DOUBLE) {
            exp_loop = ufunc->functions[i];
            exp_data = ufunc->data[i];
            dgemv = (dgemv_fn)blas_dgemv;
            return 1;
        }
    }
    return 0;
}

/* out = np.exp(x) for n contiguous doubles; out does not overlap x */
static void numpy_exp(const double *x, double *out, long n)
{
    char *args[2] = {(char *)x, (char *)out};
    npy_intp dimensions[1] = {n};
    npy_intp steps[2] = {sizeof(double), sizeof(double)};
    exp_loop(args, dimensions, steps, exp_data);
}

/* The index ndarray.argmax returns for a[0..n): the first NaN, else the
   first maximum. */
static long first_argmax(const double *a, long n)
{
    long best = 0;
    double top = a[0];
    if (isnan(top))
        return 0;
    for (long i = 1; i < n; i++) {
        if (!(a[i] <= top)) {
            top = a[i];
            best = i;
            if (isnan(top))
                break;
        }
    }
    return best;
}

/* One sample as the steps read it: phi is K x d and table is T[j, y, k],
   K x labels x K, both C-contiguous and aligned. */
struct dissim_ssd_sample {
    const double *phi;
    const double *table;
    int64_t K, truth;
};

/* x = phi.T.dot(v): the gradient pulls' products.  phi.T is
   F-contiguous, so numpy passes it column-major. */
static void phi_t_dot(const struct dissim_ssd_sample *s, long d,
                      const double *v, double *x)
{
    dgemv(COL_MAJOR, NO_TRANS, d, s->K, 1.0, s->phi, d, v, 1, 0.0, x, 1);
}

/* Steps t0, t0 + 1, ..., t0 + count - 1 of thetasolver._ssd_python on
   theta (d doubles, updated in place), for a latent-dependent loss; step
   t0 + i draws sample idx[i].
   scores is the (n, labels, Kmax) score stack at w.  Every vector handed
   to dgemv has its own 64-byte-aligned buffer, as numpy hands each call
   a freshly allocated array: the alignment of x can change a kernel's
   rounding.  Returns 0, or -1 when the buffers cannot be allocated. */
int dissim_ssd_steps(const struct dissim_ssd_sample *samples,
                     const int64_t *idx, long count, long t0,
                     const double *scores, long labels, long Kmax, long d,
                     double lam, double beta, double *theta_io)
{
    /* buffer sizes in doubles, each rounded up to 64 bytes */
    long kb = (Kmax + 7) / 8 * 8, db = (d + 7) / 8 * 8;
    long lb = (labels * Kmax + 7) / 8 * 8;
    double *block = NULL;
    if (posix_memalign((void **)&block, 64,
                       (size_t)(7 * kb + 5 * db + 2 * lb) * sizeof(double)))
        return -1;
    double *theta = block, *mean = theta + db, *pull = mean + db;
    double *g_loss = pull + db, *g_self = g_loss + db;
    double *act = g_self + db, *shifted = act + kb, *ex = shifted + kb;
    double *probs = ex + kb, *pw_loss = probs + kb, *pw_self = pw_loss + kb;
    double *self_w = pw_self + kb, *expected = self_w + kb;
    double *augmented = expected + lb;
    for (long i = 0; i < d; i++)
        theta[i] = theta_io[i];
    for (long step = 0; step < count; step++) {
        const struct dissim_ssd_sample *s = &samples[idx[step]];
        long K = s->K, LK = labels * K;
        const double *T = s->table;
        /* model._posterior: activations, then _log_sum_exp */
        dgemv(ROW_MAJOR, NO_TRANS, K, d, 1.0, s->phi, d, theta, 1, 0.0,
              act, 1);
        double shift = act[first_argmax(act, K)];
        for (long k = 0; k < K; k++)
            shifted[k] = act[k] - shift;
        numpy_exp(shifted, ex, K);
        double total = dissim_qp_sum(ex, K);
        /* math.log returns a NaN as it is; total is at least 1 else */
        double lse = shift + (isnan(total) ? total : log(total));
        for (long k = 0; k < K; k++)
            shifted[k] = act[k] - lse;
        numpy_exp(shifted, probs, K);
        /* _step_gradients: expected = probs @ by_label, label by label */
        for (long y = 0; y < labels; y++)
            dgemv(ROW_MAJOR, TRANS, K, K, 1.0, T + y * K, LK, probs, 1,
                  0.0, expected + y * K, 1);
        /* (scores + expected).argmax(), the scores' rows Kmax apart */
        const double *score = scores + idx[step] * labels * Kmax;
        for (long y = 0; y < labels; y++)
            for (long k = 0; k < K; k++)
                augmented[y * K + k] =
                    score[y * Kmax + k] + expected[y * K + k];
        long pick = first_argmax(augmented, LK);
        const double *column = T + pick;  /* T[:, y, k], LK apart */
        phi_t_dot(s, d, probs, mean);
        for (long j = 0; j < K; j++)
            pw_loss[j] = probs[j] * column[j * LK];
        double sum = dissim_qp_sum(pw_loss, K);
        phi_t_dot(s, d, pw_loss, pull);
        for (long i = 0; i < d; i++)
            g_loss[i] = pull[i] - sum * mean[i];
        /* at_truth.dot(probs), T[:, truth, :] read in place */
        dgemv(ROW_MAJOR, NO_TRANS, K, K, 1.0, T + s->truth * K, LK,
              probs, 1, 0.0, self_w, 1);
        const double *expected_truth = expected + s->truth * K;
        for (long j = 0; j < K; j++)
            pw_self[j] = probs[j] * (self_w[j] + expected_truth[j]);
        sum = dissim_qp_sum(pw_self, K);
        phi_t_dot(s, d, pw_self, pull);
        for (long i = 0; i < d; i++)
            g_self[i] = pull[i] - sum * mean[i];
        double rate = lam * (double)(t0 + step);
        for (long i = 0; i < d; i++) {
            double th = theta[i];
            theta[i] = th - (lam * th + g_loss[i] - beta * g_self[i]) / rate;
        }
    }
    for (long i = 0; i < d; i++)
        theta_io[i] = theta[i];
    free(block);
    return 0;
}
#endif
