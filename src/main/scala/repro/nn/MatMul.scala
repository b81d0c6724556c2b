package repro.nn

/** Register-blocked kernels for the three products of [[Ops.matmul]]:
  * `Y = A·B` forward, `dA += dY·Bᵀ` and `dB += Aᵀ·dY` backward, on row-major
  * arrays (A is m x k, B is k x n, Y and dY are m x n).
  *
  * A small product spends its time on loads, stores and one serial add chain
  * per output, not on arithmetic. Each kernel holds a block of values in
  * local variables (running sums of outputs forward and in dA, entries of
  * dY rows in dB), so one load serves several terms and several independent
  * add chains run at once (Goto & van de Geijn, "Anatomy of
  * High-Performance Matrix Multiplication", ACM TOMS 2008).
  *
  * The blocking changes which outputs are computed together, never the
  * order of one output's terms: every output starts from the value it
  * started from in the plain loops (0.0 forward, the accumulated gradient
  * backward) and adds its terms in ascending index order, skipping the same
  * `a == 0.0` terms. Results are therefore bit-identical to the plain loops
  * kept in the test sources (`ReferenceOps.matmul*`).
  *
  * Zero-free pairs: forward and in dB, two consecutive rows of A that hold
  * no zero (`-0.0` counts as one) go through one block that reads each
  * entry of B, or each entry of dB, once for both rows. Neither row skips a
  * term, so every output still adds all its terms in ascending order. Any
  * other row lists its non-zero p once, in a per-thread buffer, and sums
  * over that list.
  */
private[nn] object MatMul {

  /** This thread's list of one row's non-zero p, grown to the widest row. */
  private final class NonZeros { var cols = new Array[Int](64) }
  private val nonZeros = ThreadLocal.withInitial[NonZeros](() => new NonZeros)

  private def nonZeroBuffer(k: Int): Array[Int] = {
    val h = nonZeros.get
    if (h.cols.length < k) h.cols = new Array[Int](k)
    h.cols
  }

  /** Lists the p with a(from + p) != 0 for p < k in `nz`; returns how many.
    * Every p is written and the count steps by 0 or 1, with no branch on
    * the value: a row after a ReLU is zero at random places, and a branch
    * on each entry would mispredict about half the time.
    */
  private def listNonZeros(a: Array[Double], from: Int, k: Int, nz: Array[Int]): Int = {
    var c = 0; var p = 0
    while (p < k) { nz(c) = p; c += (if (a(from + p) != 0.0) 1 else 0); p += 1 }
    c
  }

  /** Whether rows i and i + 1 of A (k columns) hold no ±0.0. */
  private def zeroFreePair(a: Array[Double], i: Int, k: Int): Boolean = {
    var p = i * k; val end = p + 2 * k
    while (p < end && a(p) != 0.0) p += 1
    p == end
  }

  /** out(i, j) = Σ_p a(i, p)·b(p, j) over the p with a(i, p) != 0, in
    * ascending p. `out` must be zero on entry. Zero-free pairs of rows go to
    * [[mulPair]], every other row to [[mulRow]]; a finite column `b`
    * (n = 1) goes to [[mulColumn]].
    */
  def mul(a: Array[Double], b: Array[Double], out: Array[Double], m: Int, k: Int, n: Int): Unit = {
    if (n == 1 && allFinite(b, k)) { mulColumn(a, b, out, m, k); return }
    var nz: Array[Int] = null
    var i = 0
    while (i < m) {
      if (i + 1 < m && zeroFreePair(a, i, k)) { mulPair(a, b, out, i, k, n); i += 2 }
      else {
        if (nz == null) nz = nonZeroBuffer(k)
        mulRow(a, b, out, i, k, n, nz, listNonZeros(a, i * k, k, nz))
        i += 1
      }
    }
  }

  /** Rows i and i + 1 of `mul`, neither holding a zero: eight (then four,
    * then one) output columns of both rows at a time, every term in
    * ascending p, each load of B serving both rows.
    */
  private def mulPair(a: Array[Double], b: Array[Double], out: Array[Double], i: Int, k: Int, n: Int): Unit = {
    val a0 = i * k; val a1 = a0 + k; val o0 = i * n; val o1 = o0 + n
    var j = 0
    while (j + 8 <= n) {
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var s4 = 0.0; var s5 = 0.0; var s6 = 0.0; var s7 = 0.0
      var t0 = 0.0; var t1 = 0.0; var t2 = 0.0; var t3 = 0.0
      var t4 = 0.0; var t5 = 0.0; var t6 = 0.0; var t7 = 0.0
      var p = 0
      while (p < k) {
        val u = a(a0 + p); val v = a(a1 + p); val bo = p * n + j
        val b0 = b(bo); val b1 = b(bo + 1); val b2 = b(bo + 2); val b3 = b(bo + 3)
        s0 += u * b0; s1 += u * b1; s2 += u * b2; s3 += u * b3
        t0 += v * b0; t1 += v * b1; t2 += v * b2; t3 += v * b3
        val b4 = b(bo + 4); val b5 = b(bo + 5); val b6 = b(bo + 6); val b7 = b(bo + 7)
        s4 += u * b4; s5 += u * b5; s6 += u * b6; s7 += u * b7
        t4 += v * b4; t5 += v * b5; t6 += v * b6; t7 += v * b7
        p += 1
      }
      out(o0 + j) = s0; out(o0 + j + 1) = s1; out(o0 + j + 2) = s2; out(o0 + j + 3) = s3
      out(o0 + j + 4) = s4; out(o0 + j + 5) = s5; out(o0 + j + 6) = s6; out(o0 + j + 7) = s7
      out(o1 + j) = t0; out(o1 + j + 1) = t1; out(o1 + j + 2) = t2; out(o1 + j + 3) = t3
      out(o1 + j + 4) = t4; out(o1 + j + 5) = t5; out(o1 + j + 6) = t6; out(o1 + j + 7) = t7
      j += 8
    }
    if (j + 4 <= n) {
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var t0 = 0.0; var t1 = 0.0; var t2 = 0.0; var t3 = 0.0
      var p = 0
      while (p < k) {
        val u = a(a0 + p); val v = a(a1 + p); val bo = p * n + j
        val b0 = b(bo); val b1 = b(bo + 1); val b2 = b(bo + 2); val b3 = b(bo + 3)
        s0 += u * b0; s1 += u * b1; s2 += u * b2; s3 += u * b3
        t0 += v * b0; t1 += v * b1; t2 += v * b2; t3 += v * b3
        p += 1
      }
      out(o0 + j) = s0; out(o0 + j + 1) = s1; out(o0 + j + 2) = s2; out(o0 + j + 3) = s3
      out(o1 + j) = t0; out(o1 + j + 1) = t1; out(o1 + j + 2) = t2; out(o1 + j + 3) = t3
      j += 4
    }
    while (j < n) {
      var s = 0.0; var t = 0.0; var p = 0
      while (p < k) { val bv = b(p * n + j); s += a(a0 + p) * bv; t += a(a1 + p) * bv; p += 1 }
      out(o0 + j) = s; out(o1 + j) = t
      j += 1
    }
  }

  /** Row i of `mul` over its `c` listed non-zero p: sixteen (then four,
    * then one) output columns at a time.
    */
  private def mulRow(
      a: Array[Double], b: Array[Double], out: Array[Double], i: Int, k: Int, n: Int, nz: Array[Int], c: Int,
  ): Unit = {
    val ao = i * k; val oo = i * n
    var j = 0
    while (j + 16 <= n) {
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var s4 = 0.0; var s5 = 0.0; var s6 = 0.0; var s7 = 0.0
      var s8 = 0.0; var s9 = 0.0; var s10 = 0.0; var s11 = 0.0
      var s12 = 0.0; var s13 = 0.0; var s14 = 0.0; var s15 = 0.0
      var q = 0
      while (q < c) {
        val pp = nz(q); val av = a(ao + pp); val bo = pp * n + j
        s0 += av * b(bo); s1 += av * b(bo + 1); s2 += av * b(bo + 2); s3 += av * b(bo + 3)
        s4 += av * b(bo + 4); s5 += av * b(bo + 5); s6 += av * b(bo + 6); s7 += av * b(bo + 7)
        s8 += av * b(bo + 8); s9 += av * b(bo + 9); s10 += av * b(bo + 10); s11 += av * b(bo + 11)
        s12 += av * b(bo + 12); s13 += av * b(bo + 13); s14 += av * b(bo + 14); s15 += av * b(bo + 15)
        q += 1
      }
      out(oo + j) = s0; out(oo + j + 1) = s1; out(oo + j + 2) = s2; out(oo + j + 3) = s3
      out(oo + j + 4) = s4; out(oo + j + 5) = s5; out(oo + j + 6) = s6; out(oo + j + 7) = s7
      out(oo + j + 8) = s8; out(oo + j + 9) = s9; out(oo + j + 10) = s10; out(oo + j + 11) = s11
      out(oo + j + 12) = s12; out(oo + j + 13) = s13; out(oo + j + 14) = s14; out(oo + j + 15) = s15
      j += 16
    }
    while (j + 4 <= n) {
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
    * ascending i: one rank-1 update per row of A. Zero-free pairs of rows go
    * to [[addAtBPair]], every other row to [[addAtBRow]].
    */
  def addAtB(a: Array[Double], dy: Array[Double], db: Array[Double], m: Int, k: Int, n: Int): Unit = {
    var nz: Array[Int] = null
    var i = 0
    while (i < m) {
      if (i + 1 < m && zeroFreePair(a, i, k)) { addAtBPair(a, dy, db, i, k, n); i += 2 }
      else {
        if (nz == null) nz = nonZeroBuffer(k)
        addAtBRow(a, dy, db, i, k, n, nz, listNonZeros(a, i * k, k, nz))
        i += 1
      }
    }
  }

  /** The updates of rows i and i + 1, neither holding a zero, in one pass
    * over dB: eight (then four, then one) entries of both dY rows stay in
    * registers, and each db(p, j) takes row i's term, then row i + 1's, in
    * one read and one write.
    */
  private def addAtBPair(a: Array[Double], dy: Array[Double], db: Array[Double], i: Int, k: Int, n: Int): Unit = {
    val a0 = i * k; val a1 = a0 + k; val y0 = i * n; val y1 = y0 + n
    var j = 0
    while (j + 8 <= n) {
      val d0 = dy(y0 + j); val d1 = dy(y0 + j + 1); val d2 = dy(y0 + j + 2); val d3 = dy(y0 + j + 3)
      val d4 = dy(y0 + j + 4); val d5 = dy(y0 + j + 5); val d6 = dy(y0 + j + 6); val d7 = dy(y0 + j + 7)
      val e0 = dy(y1 + j); val e1 = dy(y1 + j + 1); val e2 = dy(y1 + j + 2); val e3 = dy(y1 + j + 3)
      val e4 = dy(y1 + j + 4); val e5 = dy(y1 + j + 5); val e6 = dy(y1 + j + 6); val e7 = dy(y1 + j + 7)
      var p = 0
      while (p < k) {
        val u = a(a0 + p); val v = a(a1 + p); val o = p * n + j
        db(o) = db(o) + u * d0 + v * e0; db(o + 1) = db(o + 1) + u * d1 + v * e1
        db(o + 2) = db(o + 2) + u * d2 + v * e2; db(o + 3) = db(o + 3) + u * d3 + v * e3
        db(o + 4) = db(o + 4) + u * d4 + v * e4; db(o + 5) = db(o + 5) + u * d5 + v * e5
        db(o + 6) = db(o + 6) + u * d6 + v * e6; db(o + 7) = db(o + 7) + u * d7 + v * e7
        p += 1
      }
      j += 8
    }
    if (j + 4 <= n) {
      val d0 = dy(y0 + j); val d1 = dy(y0 + j + 1); val d2 = dy(y0 + j + 2); val d3 = dy(y0 + j + 3)
      val e0 = dy(y1 + j); val e1 = dy(y1 + j + 1); val e2 = dy(y1 + j + 2); val e3 = dy(y1 + j + 3)
      var p = 0
      while (p < k) {
        val u = a(a0 + p); val v = a(a1 + p); val o = p * n + j
        db(o) = db(o) + u * d0 + v * e0; db(o + 1) = db(o + 1) + u * d1 + v * e1
        db(o + 2) = db(o + 2) + u * d2 + v * e2; db(o + 3) = db(o + 3) + u * d3 + v * e3
        p += 1
      }
      j += 4
    }
    while (j < n) {
      val d0 = dy(y0 + j); val e0 = dy(y1 + j); var p = 0
      while (p < k) { val o = p * n + j; db(o) = db(o) + a(a0 + p) * d0 + a(a1 + p) * e0; p += 1 }
      j += 1
    }
  }

  /** Row i's update over its `c` listed non-zero p: eight (then four, then
    * one) entries of its dY row stay in registers while every listed row of
    * dB takes them.
    */
  private def addAtBRow(
      a: Array[Double], dy: Array[Double], db: Array[Double], i: Int, k: Int, n: Int, nz: Array[Int], c: Int,
  ): Unit = {
    val ao = i * k; val yo = i * n
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
  }
}
