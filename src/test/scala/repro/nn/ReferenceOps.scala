package repro.nn

/** Forward values of the `Ops` kernels as they were written with the
  * closure-taking `Tensor(r, c)(f)` constructor, `Array.tabulate`, `.map`
  * and folds, the positional encodings as they were recomputed on every
  * call, and the three matmul products as plain loops. Kept as the
  * reference for the loop, `System.arraycopy` and register-blocked
  * [[MatMul]] kernels, which must equal these bit for bit.
  */
object ReferenceOps {

  /** a(m x k) * b(k x n), one output row at a time in i-p-j order. */
  def matmul(a: Tensor, b: Tensor): Tensor = {
    val m = a.rows; val k = a.cols; val n = b.cols
    val out = new Array[Double](m * n)
    var i = 0
    while (i < m) {
      var p = 0
      while (p < k) {
        val av = a.data(i * k + p)
        if (av != 0.0) {
          var j = 0
          val bo = p * n; val oo = i * n
          while (j < n) { out(oo + j) += av * b.data(bo + j); j += 1 }
        }
        p += 1
      }
      i += 1
    }
    new Tensor(m, n, out)
  }

  /** da += dy * b^T for y = a * b, one dot product per element of da. */
  def matmulGradA(a: Tensor, b: Tensor, dy: Array[Double], da: Array[Double]): Unit = {
    val m = a.rows; val k = a.cols; val n = b.cols
    var i = 0
    while (i < m) {
      var p = 0
      while (p < k) {
        var s = 0.0; var j = 0
        val yo = i * n; val bo = p * n
        while (j < n) { s += dy(yo + j) * b.data(bo + j); j += 1 }
        da(i * k + p) += s
        p += 1
      }
      i += 1
    }
  }

  /** db += a^T * dy for y = a * b, one row of a^T at a time. */
  def matmulGradB(a: Tensor, b: Tensor, dy: Array[Double], db: Array[Double]): Unit = {
    val m = a.rows; val k = a.cols; val n = b.cols
    var p = 0
    while (p < k) {
      var i = 0
      while (i < m) {
        val av = a.data(i * k + p)
        if (av != 0.0) {
          var j = 0
          val yo = i * n; val bo = p * n
          while (j < n) { db(bo + j) += av * dy(yo + j); j += 1 }
        }
        i += 1
      }
      p += 1
    }
  }

  def transpose(a: Tensor): Tensor = Tensor(a.cols, a.rows)((i, j) => a(j, i))

  def add(a: Tensor, b: Tensor): Tensor =
    new Tensor(a.rows, a.cols, Array.tabulate(a.size)(i => a.data(i) + b.data(i)))

  def addRow(a: Tensor, b: Tensor): Tensor = Tensor(a.rows, a.cols)((i, j) => a(i, j) + b.data(j))

  def mulElem(a: Tensor, b: Tensor): Tensor =
    new Tensor(a.rows, a.cols, Array.tabulate(a.size)(i => a.data(i) * b.data(i)))

  def scale(a: Tensor, c: Double): Tensor = new Tensor(a.rows, a.cols, a.data.map(_ * c))

  def relu(a: Tensor): Tensor = new Tensor(a.rows, a.cols, a.data.map(v => if (v > 0) v else 0.0))

  def sigmoid(a: Tensor): Tensor =
    new Tensor(a.rows, a.cols, a.data.map(v => 1.0 / (1.0 + math.exp(-v))))

  def tanh(a: Tensor): Tensor = new Tensor(a.rows, a.cols, a.data.map(math.tanh))

  def softmaxRows(a: Tensor): Tensor = {
    val mx = Array.tabulate(a.rows)(i =>
      (0 until a.cols).foldLeft(Double.NegativeInfinity)((m, j) => if (a(i, j) > m) a(i, j) else m))
    val e = Tensor(a.rows, a.cols)((i, j) => math.exp(a(i, j) - mx(i)))
    val sum = Array.tabulate(a.rows)(i => (0 until a.cols).foldLeft(0.0)((s, j) => s + e(i, j)))
    Tensor(a.rows, a.cols)((i, j) => e(i, j) / sum(i))
  }

  /** Summed -log of each row's softmax at its target, floored at 1e-12. */
  def ceRowsSum(logits: Tensor, targets: Array[Int]): Tensor = {
    val p = softmaxRows(logits)
    val loss = targets.indices.foldLeft(0.0)((l, i) => l + -math.log(math.max(1e-12, p(i, targets(i)))))
    new Tensor(1, 1, Array(loss))
  }

  def layerNorm(x: Tensor, gain: Tensor, bias: Tensor, eps: Double = 1e-5): Tensor = {
    val n = x.cols
    val xhat = new Array[Double](x.size)
    var i = 0
    while (i < x.rows) {
      var mu = 0.0; var j = 0
      while (j < n) { mu += x(i, j); j += 1 }
      mu /= n
      var v = 0.0
      j = 0
      while (j < n) { val d = x(i, j) - mu; v += d * d; j += 1 }
      v /= n
      val is = 1.0 / math.sqrt(v + eps)
      j = 0
      while (j < n) { xhat(i * n + j) = (x(i, j) - mu) * is; j += 1 }
      i += 1
    }
    Tensor(x.rows, n)((i2, j2) => xhat(i2 * n + j2) * gain.data(j2) + bias.data(j2))
  }

  def concatCols(a: Tensor, b: Tensor): Tensor =
    Tensor(a.rows, a.cols + b.cols)((i, j) => if (j < a.cols) a(i, j) else b(i, j - a.cols))

  def sliceCols(a: Tensor, from: Int, until: Int): Tensor =
    Tensor(a.rows, until - from)((i, j) => a(i, from + j))

  def sliceRows(a: Tensor, from: Int, until: Int): Tensor =
    Tensor(until - from, a.cols)((i, j) => a(from + i, j))

  def rows(emb: Tensor, idx: Array[Int]): Tensor = Tensor(idx.length, emb.cols)((i, j) => emb(idx(i), j))

  def tileRows(row: Tensor, m: Int): Tensor = Tensor(m, row.cols)((_, j) => row.data(j))

  def positional(len: Int, d: Int): Tensor = Tensor(len, d) { (pos, j) =>
    val exp = (j / 2) * 2.0 / d
    val angle = pos / math.pow(10000.0, exp)
    if (j % 2 == 0) math.sin(angle) else math.cos(angle)
  }
}
