package repro.nn

/** Register-blocked kernels for the three products of [[Ops.matmul]]:
  * `Y = A·B` forward, `dA += dY·Bᵀ` and `dB += Aᵀ·dY` backward, on row-major
  * arrays (A is m x k, B is k x n, Y and dY are m x n).
  *
  * A small product spends its time on loads, stores and one serial add chain
  * per output, not on arithmetic. Each kernel holds a block of values in
  * local variables (running sums of eight or four outputs forward and in
  * dA, eight or four entries of a dY row in dB), so one load serves several
  * terms and several independent add chains run at once (Goto & van de
  * Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
  * 2008).
  *
  * The blocking changes which outputs are computed together, never the
  * order of one output's terms: every output starts from the value it
  * started from in the plain loops (0.0 forward, the accumulated gradient
  * backward) and adds its terms in ascending index order, skipping the same
  * `a == 0.0` terms. Results are therefore bit-identical to the plain loops
  * kept in the test sources (`ReferenceOps.matmul*`).
  */
private[nn] object MatMul {

  /** out(i, j) = Σ_p a(i, p)·b(p, j) over the p with a(i, p) != 0, in
    * ascending p. `out` must be zero on entry. Each row lists its non-zero
    * p once, then fills eight, four, then one output column at a time. A
    * finite column `b` (n = 1) goes to [[mulColumn]].
    */
  def mul(a: Array[Double], b: Array[Double], out: Array[Double], m: Int, k: Int, n: Int): Unit = {
    if (n == 1 && allFinite(b, k)) { mulColumn(a, b, out, m, k); return }
    val nz = new Array[Int](k)
    var i = 0
    while (i < m) {
      val ao = i * k; val oo = i * n
      var c = 0; var p = 0
      while (p < k) { if (a(ao + p) != 0.0) { nz(c) = p; c += 1 }; p += 1 }
      var j = 0
      while (j + 8 <= n) {
        var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
        var s4 = 0.0; var s5 = 0.0; var s6 = 0.0; var s7 = 0.0
        var q = 0
        while (q < c) {
          val pp = nz(q); val av = a(ao + pp); val bo = pp * n + j
          s0 += av * b(bo); s1 += av * b(bo + 1); s2 += av * b(bo + 2); s3 += av * b(bo + 3)
          s4 += av * b(bo + 4); s5 += av * b(bo + 5); s6 += av * b(bo + 6); s7 += av * b(bo + 7)
          q += 1
        }
        out(oo + j) = s0; out(oo + j + 1) = s1; out(oo + j + 2) = s2; out(oo + j + 3) = s3
        out(oo + j + 4) = s4; out(oo + j + 5) = s5; out(oo + j + 6) = s6; out(oo + j + 7) = s7
        j += 8
      }
      if (j + 4 <= n) {
        var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
        var q = 0
        while (q < c) {
          val pp = nz(q); val av = a(ao + pp); val bo = pp * n + j
          s0 += av * b(bo); s1 += av * b(bo + 1); s2 += av * b(bo + 2); s3 += av * b(bo + 3)
          q += 1
        }
        out(oo + j) = s0; out(oo + j + 1) = s1; out(oo + j + 2) = s2; out(oo + j + 3) = s3
        j += 4
      }
      while (j < n) {
        var s = 0.0; var q = 0
        while (q < c) { val pp = nz(q); s += a(ao + pp) * b(pp * n + j); q += 1 }
        out(oo + j) = s
        j += 1
      }
      i += 1
    }
  }

  private def allFinite(b: Array[Double], k: Int): Boolean = {
    var p = 0
    while (p < k && java.lang.Double.isFinite(b(p))) p += 1
    p == k
  }

  /** `mul` for a finite column b (k x 1), four rows at a time, every row's
    * terms in ascending p with none skipped. A skipped term of `mul` has
    * a(i, p) == 0, so with b(p) finite it is ±0.0; a sum that starts at
    * +0.0 is never -0.0, and adding ±0.0 to it leaves it unchanged. The
    * result is therefore bit-identical to `mul`'s, without one serial add
    * chain per row.
    */
  private def mulColumn(a: Array[Double], b: Array[Double], out: Array[Double], m: Int, k: Int): Unit = {
    var i = 0
    while (i + 4 <= m) {
      val a0 = i * k; val a1 = a0 + k; val a2 = a1 + k; val a3 = a2 + k
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var p = 0
      while (p < k) {
        val bv = b(p)
        s0 += a(a0 + p) * bv; s1 += a(a1 + p) * bv; s2 += a(a2 + p) * bv; s3 += a(a3 + p) * bv
        p += 1
      }
      out(i) = s0; out(i + 1) = s1; out(i + 2) = s2; out(i + 3) = s3
      i += 4
    }
    while (i < m) {
      val ao = i * k
      var s = 0.0; var p = 0
      while (p < k) { s += a(ao + p) * b(p); p += 1 }
      out(i) = s
      i += 1
    }
  }

  /** da(i, p) += Σ_j dy(i, j)·b(p, j), the sum formed in ascending j and
    * then added. Pairs of rows take four p at a time (eight sums sharing
    * their loads); a last odd row takes four p at a time.
    */
  def addABt(dy: Array[Double], b: Array[Double], da: Array[Double], m: Int, k: Int, n: Int): Unit = {
    var i = 0
    while (i + 2 <= m) {
      val y0 = i * n; val y1 = y0 + n; val d0 = i * k; val d1 = d0 + k
      var p = 0
      while (p + 4 <= k) {
        val b0 = p * n; val b1 = b0 + n; val b2 = b1 + n; val b3 = b2 + n
        var s00 = 0.0; var s01 = 0.0; var s02 = 0.0; var s03 = 0.0
        var s10 = 0.0; var s11 = 0.0; var s12 = 0.0; var s13 = 0.0
        var j = 0
        while (j < n) {
          val u = dy(y0 + j); val v = dy(y1 + j)
          val c0 = b(b0 + j); val c1 = b(b1 + j); val c2 = b(b2 + j); val c3 = b(b3 + j)
          s00 += u * c0; s01 += u * c1; s02 += u * c2; s03 += u * c3
          s10 += v * c0; s11 += v * c1; s12 += v * c2; s13 += v * c3
          j += 1
        }
        da(d0 + p) += s00; da(d0 + p + 1) += s01; da(d0 + p + 2) += s02; da(d0 + p + 3) += s03
        da(d1 + p) += s10; da(d1 + p + 1) += s11; da(d1 + p + 2) += s12; da(d1 + p + 3) += s13
        p += 4
      }
      while (p < k) {
        val bo = p * n
        var s0 = 0.0; var s1 = 0.0; var j = 0
        while (j < n) { val c = b(bo + j); s0 += dy(y0 + j) * c; s1 += dy(y1 + j) * c; j += 1 }
        da(d0 + p) += s0; da(d1 + p) += s1
        p += 1
      }
      i += 2
    }
    if (i < m) {
      val y0 = i * n; val d0 = i * k
      var p = 0
      while (p + 4 <= k) {
        val b0 = p * n; val b1 = b0 + n; val b2 = b1 + n; val b3 = b2 + n
        var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
        var j = 0
        while (j < n) {
          val u = dy(y0 + j)
          s0 += u * b(b0 + j); s1 += u * b(b1 + j); s2 += u * b(b2 + j); s3 += u * b(b3 + j)
          j += 1
        }
        da(d0 + p) += s0; da(d0 + p + 1) += s1; da(d0 + p + 2) += s2; da(d0 + p + 3) += s3
        p += 4
      }
      while (p < k) {
        val bo = p * n
        var s = 0.0; var j = 0
        while (j < n) { s += dy(y0 + j) * b(bo + j); j += 1 }
        da(d0 + p) += s
        p += 1
      }
    }
  }

  /** db(p, j) += a(i, p)·dy(i, j) for each i with a(i, p) != 0, in
    * ascending i: one rank-1 update per row of A. Each row lists its
    * non-zero p once; eight (then four, then one) entries of its dY row stay
    * in registers while every listed row of dB takes them.
    */
  def addAtB(a: Array[Double], dy: Array[Double], db: Array[Double], m: Int, k: Int, n: Int): Unit = {
    val nz = new Array[Int](k)
    var i = 0
    while (i < m) {
      val ao = i * k; val yo = i * n
      var c = 0; var p = 0
      while (p < k) { if (a(ao + p) != 0.0) { nz(c) = p; c += 1 }; p += 1 }
      var j = 0
      while (j + 8 <= n) {
        val d0 = dy(yo + j); val d1 = dy(yo + j + 1); val d2 = dy(yo + j + 2); val d3 = dy(yo + j + 3)
        val d4 = dy(yo + j + 4); val d5 = dy(yo + j + 5); val d6 = dy(yo + j + 6); val d7 = dy(yo + j + 7)
        var q = 0
        while (q < c) {
          val pp = nz(q); val av = a(ao + pp); val o = pp * n + j
          db(o) += av * d0; db(o + 1) += av * d1; db(o + 2) += av * d2; db(o + 3) += av * d3
          db(o + 4) += av * d4; db(o + 5) += av * d5; db(o + 6) += av * d6; db(o + 7) += av * d7
          q += 1
        }
        j += 8
      }
      if (j + 4 <= n) {
        val d0 = dy(yo + j); val d1 = dy(yo + j + 1); val d2 = dy(yo + j + 2); val d3 = dy(yo + j + 3)
        var q = 0
        while (q < c) {
          val pp = nz(q); val av = a(ao + pp); val o = pp * n + j
          db(o) += av * d0; db(o + 1) += av * d1; db(o + 2) += av * d2; db(o + 3) += av * d3
          q += 1
        }
        j += 4
      }
      while (j < n) {
        val d0 = dy(yo + j); var q = 0
        while (q < c) { val pp = nz(q); db(pp * n + j) += a(ao + pp) * d0; q += 1 }
        j += 1
      }
      i += 1
    }
  }
}
