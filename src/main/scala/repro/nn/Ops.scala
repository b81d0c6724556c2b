package repro.nn

/** Differentiable tensor operations. Every op computes the forward value
  * eagerly and, when `tp` is a [[GradTape]], records its output with a
  * closure that accumulates input gradients from the output gradient,
  * skipping each input the tape `needsGrad` not (a constant). All gradients
  * are verified against numerical differentiation in `nn.GradCheckSpec`.
  */
object Ops {

  /** a(m x k) * b(k x n) -> m x n, through the [[MatMul]] kernels. */
  def matmul(a: Tensor, b: Tensor)(implicit tp: Tape): Tensor = {
    require(a.cols == b.rows, s"matmul $a * $b")
    val m = a.rows; val k = a.cols; val n = b.cols
    val out = tp.alloc(m * n)
    MatMul.mul(a.data, b.data, out, m, k, n)
    val y = new Tensor(m, n, out)
    if (tp.active) tp.record(y, a, b) { () =>
      val dy = tp.grad(y)
      if (tp.needsGrad(a)) MatMul.addABt(dy, b.data, tp.grad(a), m, k, n)
      if (tp.needsGrad(b)) MatMul.addAtB(a.data, dy, tp.grad(b), m, k, n)
    }
    y
  }

  def transpose(a: Tensor)(implicit tp: Tape): Tensor = {
    val m = a.rows; val n = a.cols
    val out = tp.alloc(m * n)
    var r = 0
    while (r < m) { var c = 0; while (c < n) { out(c * m + r) = a.data(r * n + c); c += 1 }; r += 1 }
    val y = new Tensor(n, m, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0
      while (i < a.rows) { var j = 0; while (j < a.cols) { da(i * a.cols + j) += dy(j * a.rows + i); j += 1 }; i += 1 }
    }
    y
  }

  def add(a: Tensor, b: Tensor)(implicit tp: Tape): Tensor = {
    require(a.rows == b.rows && a.cols == b.cols, s"add $a + $b")
    val out = tp.alloc(a.size)
    var k = 0; while (k < out.length) { out(k) = a.data(k) + b.data(k); k += 1 }
    val y = new Tensor(a.rows, a.cols, out)
    if (tp.active) tp.record(y, a, b) { () =>
      val dy = tp.grad(y)
      if (tp.needsGrad(a)) { val da = tp.grad(a); var i = 0; while (i < y.size) { da(i) += dy(i); i += 1 } }
      if (tp.needsGrad(b)) { val db = tp.grad(b); var i = 0; while (i < y.size) { db(i) += dy(i); i += 1 } }
    }
    y
  }

  /** Broadcast-add a 1 x n row vector to every row of a (m x n). */
  def addRow(a: Tensor, b: Tensor)(implicit tp: Tape): Tensor = {
    require(b.rows == 1 && a.cols == b.cols, s"addRow $a + $b")
    val n = a.cols
    val out = tp.alloc(a.size)
    var r = 0
    while (r < a.rows) { var c = 0; while (c < n) { val k = r * n + c; out(k) = a.data(k) + b.data(c); c += 1 }; r += 1 }
    val y = new Tensor(a.rows, n, out)
    if (tp.active) tp.record(y, a, b) { () =>
      val dy = tp.grad(y)
      if (tp.needsGrad(a)) { val da = tp.grad(a); var i = 0; while (i < y.size) { da(i) += dy(i); i += 1 } }
      if (tp.needsGrad(b)) {
        val db = tp.grad(b)
        var i = 0
        while (i < a.rows) { var j = 0; while (j < n) { db(j) += dy(i * n + j); j += 1 }; i += 1 }
      }
    }
    y
  }

  def mulElem(a: Tensor, b: Tensor)(implicit tp: Tape): Tensor = {
    require(a.rows == b.rows && a.cols == b.cols, s"mulElem $a * $b")
    val out = tp.alloc(a.size)
    var k = 0; while (k < out.length) { out(k) = a.data(k) * b.data(k); k += 1 }
    val y = new Tensor(a.rows, a.cols, out)
    if (tp.active) tp.record(y, a, b) { () =>
      val dy = tp.grad(y)
      if (tp.needsGrad(a)) { val da = tp.grad(a); var i = 0; while (i < y.size) { da(i) += dy(i) * b.data(i); i += 1 } }
      if (tp.needsGrad(b)) { val db = tp.grad(b); var i = 0; while (i < y.size) { db(i) += dy(i) * a.data(i); i += 1 } }
    }
    y
  }

  def scale(a: Tensor, c: Double)(implicit tp: Tape): Tensor = {
    val out = tp.alloc(a.size)
    var k = 0; while (k < out.length) { out(k) = a.data(k) * c; k += 1 }
    val y = new Tensor(a.rows, a.cols, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0; while (i < y.size) { da(i) += dy(i) * c; i += 1 }
    }
    y
  }

  def relu(a: Tensor)(implicit tp: Tape): Tensor = {
    val out = tp.alloc(a.size)
    var k = 0; while (k < out.length) { val v = a.data(k); out(k) = if (v > 0) v else 0.0; k += 1 }
    val y = new Tensor(a.rows, a.cols, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0; while (i < y.size) { if (a.data(i) > 0) da(i) += dy(i); i += 1 }
    }
    y
  }

  def sigmoid(a: Tensor)(implicit tp: Tape): Tensor = {
    val out = tp.alloc(a.size)
    var k = 0; while (k < out.length) { out(k) = 1.0 / (1.0 + math.exp(-a.data(k))); k += 1 }
    val y = new Tensor(a.rows, a.cols, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0; while (i < y.size) { val s = y.data(i); da(i) += dy(i) * s * (1 - s); i += 1 }
    }
    y
  }

  def tanh(a: Tensor)(implicit tp: Tape): Tensor = {
    val out = tp.alloc(a.size)
    var k = 0; while (k < out.length) { out(k) = math.tanh(a.data(k)); k += 1 }
    val y = new Tensor(a.rows, a.cols, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0; while (i < y.size) { val t = y.data(i); da(i) += dy(i) * (1 - t * t); i += 1 }
    }
    y
  }

  /** Row-wise softmax of `a` into `out` (same size): each row shifted by
    * its maximum, exponentiated and divided by its sum.
    */
  private def softmaxInto(a: Tensor, out: Array[Double]): Unit = {
    val n = a.cols
    var i = 0
    while (i < a.rows) {
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < n) { val v = a(i, j); if (v > mx) mx = v; j += 1 }
      var s = 0.0
      j = 0
      while (j < n) { val e = math.exp(a(i, j) - mx); out(i * n + j) = e; s += e; j += 1 }
      j = 0
      while (j < n) { out(i * n + j) /= s; j += 1 }
      i += 1
    }
  }

  /** Row-wise softmax. */
  def softmaxRows(a: Tensor)(implicit tp: Tape): Tensor = {
    val n = a.cols
    val out = tp.alloc(a.size)
    softmaxInto(a, out)
    val y = new Tensor(a.rows, n, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i2 = 0
      while (i2 < a.rows) {
        var dot = 0.0; var j2 = 0
        while (j2 < n) { dot += dy(i2 * n + j2) * y.data(i2 * n + j2); j2 += 1 }
        j2 = 0
        while (j2 < n) { da(i2 * n + j2) += (dy(i2 * n + j2) - dot) * y.data(i2 * n + j2); j2 += 1 }
        i2 += 1
      }
    }
    y
  }

  /** Row-wise layer normalisation with learnable gain/bias (both 1 x n). */
  def layerNorm(x: Tensor, gain: Tensor, bias: Tensor)(implicit tp: Tape): Tensor = {
    require(gain.rows == 1 && bias.rows == 1 && gain.cols == x.cols && bias.cols == x.cols)
    val n = x.cols
    val xhat = tp.alloc(x.size)
    val invStd = tp.alloc(x.rows)
    var i = 0
    while (i < x.rows) {
      var mu = 0.0; var j = 0
      while (j < n) { mu += x(i, j); j += 1 }
      mu /= n
      var v = 0.0
      j = 0
      while (j < n) { val d = x(i, j) - mu; v += d * d; j += 1 }
      v /= n
      val is = 1.0 / math.sqrt(v + 1e-5) // variance floor eps
      invStd(i) = is
      j = 0
      while (j < n) { xhat(i * n + j) = (x(i, j) - mu) * is; j += 1 }
      i += 1
    }
    val out = tp.alloc(x.size)
    i = 0
    while (i < x.rows) {
      var j = 0
      while (j < n) { val k = i * n + j; out(k) = xhat(k) * gain.data(j) + bias.data(j); j += 1 }
      i += 1
    }
    val y = new Tensor(x.rows, n, out)
    if (tp.active) tp.record(y, Seq(x, gain, bias)) { () =>
      val dy = tp.grad(y)
      if (tp.needsGrad(gain)) {
        val dg = tp.grad(gain)
        var i = 0
        while (i < x.rows) { var j = 0; while (j < n) { dg(j) += dy(i * n + j) * xhat(i * n + j); j += 1 }; i += 1 }
      }
      if (tp.needsGrad(bias)) {
        val db = tp.grad(bias)
        var i = 0
        while (i < x.rows) { var j = 0; while (j < n) { db(j) += dy(i * n + j); j += 1 }; i += 1 }
      }
      if (tp.needsGrad(x)) {
        val dx = tp.grad(x)
        var i3 = 0
        while (i3 < x.rows) {
          var mDxh = 0.0; var mDxhXh = 0.0
          var j3 = 0
          while (j3 < n) {
            val dxh = dy(i3 * n + j3) * gain.data(j3)
            mDxh += dxh
            mDxhXh += dxh * xhat(i3 * n + j3)
            j3 += 1
          }
          mDxh /= n; mDxhXh /= n
          j3 = 0
          while (j3 < n) {
            val dxh = dy(i3 * n + j3) * gain.data(j3)
            dx(i3 * n + j3) += invStd(i3) * (dxh - mDxh - xhat(i3 * n + j3) * mDxhXh)
            j3 += 1
          }
          i3 += 1
        }
      }
    }
    y
  }

  def concatCols(a: Tensor, b: Tensor)(implicit tp: Tape): Tensor = {
    require(a.rows == b.rows, s"concatCols $a ++ $b")
    val n = a.cols + b.cols
    val out = tp.alloc(a.rows * n)
    var r = 0
    while (r < a.rows) {
      System.arraycopy(a.data, r * a.cols, out, r * n, a.cols)
      System.arraycopy(b.data, r * b.cols, out, r * n + a.cols, b.cols)
      r += 1
    }
    val y = new Tensor(a.rows, n, out)
    if (tp.active) tp.record(y, a, b) { () =>
      val dy = tp.grad(y)
      if (tp.needsGrad(a)) {
        val da = tp.grad(a)
        var i = 0
        while (i < a.rows) { var j = 0; while (j < a.cols) { da(i * a.cols + j) += dy(i * n + j); j += 1 }; i += 1 }
      }
      if (tp.needsGrad(b)) {
        val db = tp.grad(b)
        var i = 0
        while (i < a.rows) { var j = 0; while (j < b.cols) { db(i * b.cols + j) += dy(i * n + a.cols + j); j += 1 }; i += 1 }
      }
    }
    y
  }

  def concatRows(parts: Seq[Tensor])(implicit tp: Tape): Tensor = {
    require(parts.nonEmpty)
    val n = parts.head.cols
    require(parts.forall(_.cols == n))
    val m = parts.map(_.rows).sum
    val d = tp.alloc(m * n)
    var off = 0
    parts.foreach { p => System.arraycopy(p.data, 0, d, off, p.size); off += p.size }
    val y = new Tensor(m, n, d)
    if (tp.active) tp.record(y, parts) { () =>
      val dy = tp.grad(y)
      var off2 = 0
      parts.foreach { p =>
        if (tp.needsGrad(p)) { val dp = tp.grad(p); var i = 0; while (i < p.size) { dp(i) += dy(off2 + i); i += 1 } }
        off2 += p.size
      }
    }
    y
  }

  def sliceCols(a: Tensor, from: Int, until: Int)(implicit tp: Tape): Tensor = {
    val w = until - from
    val out = tp.alloc(a.rows * w)
    var r = 0; while (r < a.rows) { System.arraycopy(a.data, r * a.cols + from, out, r * w, w); r += 1 }
    val y = new Tensor(a.rows, w, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0
      while (i < a.rows) { var j = 0; while (j < w) { da(i * a.cols + from + j) += dy(i * w + j); j += 1 }; i += 1 }
    }
    y
  }

  def sliceRows(a: Tensor, from: Int, until: Int)(implicit tp: Tape): Tensor = {
    val h = until - from
    val out = tp.alloc(h * a.cols)
    System.arraycopy(a.data, from * a.cols, out, 0, out.length)
    val y = new Tensor(h, a.cols, out)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i = 0; while (i < y.size) { da(from * a.cols + i) += dy(i); i += 1 }
    }
    y
  }

  /** Gather rows `idx` of an embedding matrix; backward scatter-adds. */
  def rows(emb: Tensor, idx: Array[Int])(implicit tp: Tape): Tensor = {
    val n = emb.cols
    val out = tp.alloc(idx.length * n)
    var r = 0; while (r < idx.length) { System.arraycopy(emb.data, idx(r) * n, out, r * n, n); r += 1 }
    val y = new Tensor(idx.length, n, out)
    if (tp.active) tp.record(y, emb) { () =>
      val dy = tp.grad(y); val de = tp.grad(emb)
      var i = 0
      while (i < idx.length) {
        var j = 0; while (j < n) { de(idx(i) * n + j) += dy(i * n + j); j += 1 }
        i += 1
      }
    }
    y
  }

  /** Column-mean over rows: (m x n) -> (1 x n). */
  def meanRows(a: Tensor)(implicit tp: Tape): Tensor = {
    val n = a.cols; val m = a.rows
    val d = tp.alloc(n)
    var i = 0
    while (i < m) { var j = 0; while (j < n) { d(j) += a(i, j) / m; j += 1 }; i += 1 }
    val y = new Tensor(1, n, d)
    if (tp.active) tp.record(y, a) { () =>
      val dy = tp.grad(y); val da = tp.grad(a)
      var i2 = 0
      while (i2 < m) { var j = 0; while (j < n) { da(i2 * n + j) += dy(j) / m; j += 1 }; i2 += 1 }
    }
    y
  }

  def sumAll(a: Tensor)(implicit tp: Tape): Tensor = {
    val y = new Tensor(1, 1, tp.alloc(1))
    y.data(0) = a.data.sum
    if (tp.active) tp.record(y, a) { () =>
      val g = tp.grad(y)(0); val da = tp.grad(a)
      var i = 0; while (i < a.size) { da(i) += g; i += 1 }
    }
    y
  }

  /** Repeat a 1 x n row vector into m rows. */
  def tileRows(row: Tensor, m: Int)(implicit tp: Tape): Tensor = {
    require(row.rows == 1, s"tileRows needs a row vector, got $row")
    val n = row.cols
    val out = tp.alloc(m * n)
    var r = 0; while (r < m) { System.arraycopy(row.data, 0, out, r * n, n); r += 1 }
    val y = new Tensor(m, n, out)
    if (tp.active) tp.record(y, row) { () =>
      val dy = tp.grad(y); val dr = tp.grad(row)
      var i = 0
      while (i < m) { var j = 0; while (j < n) { dr(j) += dy(i * n + j); j += 1 }; i += 1 }
    }
    y
  }

  /** Numerically stable binary-cross-entropy-with-logits, summed: scalar. */
  def bceLogitsSum(logits: Tensor, labels: Array[Double])(implicit tp: Tape): Tensor = {
    require(labels.length == logits.size)
    var loss = 0.0
    var i = 0
    while (i < logits.size) {
      val x = logits.data(i); val z = labels(i)
      loss += math.max(x, 0) - x * z + math.log1p(math.exp(-math.abs(x)))
      i += 1
    }
    val y = new Tensor(1, 1, tp.alloc(1))
    y.data(0) = loss
    if (tp.active) tp.record(y, logits) { () =>
      val g = tp.grad(y)(0); val dl = tp.grad(logits)
      var i2 = 0
      while (i2 < logits.size) {
        val s = 1.0 / (1.0 + math.exp(-logits.data(i2)))
        dl(i2) += g * (s - labels(i2))
        i2 += 1
      }
    }
    y
  }

  /** Row-wise softmax cross-entropy against integer targets, summed. */
  def ceRowsSum(logits: Tensor, targets: Array[Int])(implicit tp: Tape): Tensor = {
    require(targets.length == logits.rows)
    val n = logits.cols
    val probs = tp.alloc(logits.size)
    softmaxInto(logits, probs)
    var loss = 0.0
    var i = 0
    while (i < logits.rows) { loss += -math.log(math.max(1e-12, probs(i * n + targets(i)))); i += 1 }
    val y = new Tensor(1, 1, tp.alloc(1))
    y.data(0) = loss
    if (tp.active) tp.record(y, logits) { () =>
      val g = tp.grad(y)(0); val dl = tp.grad(logits)
      var i2 = 0
      while (i2 < logits.rows) {
        var j2 = 0
        while (j2 < n) {
          val t = if (j2 == targets(i2)) 1.0 else 0.0
          dl(i2 * n + j2) += g * (probs(i2 * n + j2) - t)
          j2 += 1
        }
        i2 += 1
      }
    }
    y
  }

  /** Sum of absolute errors (subgradient sign at 0). */
  def maeSum(pred: Tensor, target: Array[Double])(implicit tp: Tape): Tensor = {
    require(target.length == pred.size)
    var loss = 0.0
    var i = 0
    while (i < pred.size) { loss += math.abs(pred.data(i) - target(i)); i += 1 }
    val y = new Tensor(1, 1, tp.alloc(1))
    y.data(0) = loss
    if (tp.active) tp.record(y, pred) { () =>
      val g = tp.grad(y)(0); val dp = tp.grad(pred)
      var i2 = 0
      while (i2 < pred.size) {
        dp(i2) += g * math.signum(pred.data(i2) - target(i2))
        i2 += 1
      }
    }
    y
  }

  /** Sum of squared errors. */
  def mseSum(pred: Tensor, target: Array[Double])(implicit tp: Tape): Tensor = {
    require(target.length == pred.size)
    var loss = 0.0
    var i = 0
    while (i < pred.size) { val d = pred.data(i) - target(i); loss += d * d; i += 1 }
    val y = new Tensor(1, 1, tp.alloc(1))
    y.data(0) = loss
    if (tp.active) tp.record(y, pred) { () =>
      val g = tp.grad(y)(0); val dp = tp.grad(pred)
      var i2 = 0
      while (i2 < pred.size) { dp(i2) += g * 2 * (pred.data(i2) - target(i2)); i2 += 1 }
    }
    y
  }
}
