/* The dual QP of dissim.wsolver._qp_coordinate_ascent, compiled.

   Each function makes the IEEE operations of the Python loop in
   wsolver._qp_python, in the same order, so both return the same alpha
   bit for bit.  That holds only while the compiler neither fuses a*b+c
   into one rounding (build with -ffp-contract=off) nor reorders a sum
   (no -ffast-math), and while doubles are IEEE binary64 without excess
   precision.  wsolver builds and loads this file; see its docstring.
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
