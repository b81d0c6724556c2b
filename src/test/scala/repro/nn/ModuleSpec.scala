package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ModuleSpec extends AnyFunSuite {
  private val rnd = new Random(42)

  test("tensor shape validation") {
    intercept[IllegalArgumentException](new Tensor(2, 3, new Array[Double](5)))
    val t = Tensor.zeros(2, 3)
    assert(t.size == 6)
    assert(t(1, 2) == 0.0)
  }

  test("fromRows lays out row-major") {
    val t = Tensor.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(t(0, 1) == 2.0 && t(1, 0) == 3.0)
  }

  test("glorot init is bounded") {
    val t = Tensor.glorot(20, 30, rnd)
    val lim = math.sqrt(6.0 / 50)
    assert(t.data.forall(v => math.abs(v) <= lim))
    assert(t.data.exists(_ != 0.0))
  }

  test("positional encodings are in [-1,1] and distinct per position") {
    val p = Tensor.positional(10, 8)
    assert(p.data.forall(v => v >= -1 && v <= 1))
    val row0 = (0 until 8).map(p(0, _))
    val row5 = (0 until 8).map(p(5, _))
    assert(row0 != row5)
  }

  test("backward on non-scalar fails") {
    val tp = new GradTape
    intercept[IllegalArgumentException](tp.backward(Tensor.zeros(2, 2)))
  }

  test("NoTape grad access fails") {
    intercept[IllegalStateException](NoTape.grad(Tensor.zeros(1, 1)))
  }

  test("linear layer shape and bias") {
    implicit val tp: Tape = NoTape
    val l = new Linear(Tensor(2, 3)((_, _) => 0.0), new Tensor(1, 3, Array(1.0, 2.0, 3.0)))
    val y = l(Tensor.zeros(4, 2))
    assert(y.rows == 4 && y.cols == 3)
    assert(y(2, 1) == 2.0)
  }

  test("mlp output shape") {
    implicit val tp: Tape = NoTape
    val m = Mlp(5, 7, 2, rnd)
    assert(m(Tensor.zeros(3, 5)).cols == 2)
  }

  test("layerNorm normalises rows to mean 0 variance 1 at unit gain") {
    implicit val tp: Tape = NoTape
    val ln = LayerNorm(6)
    val x = Tensor(4, 6)((_, _) => rnd.nextGaussian() * 3 + 2)
    val y = ln(x)
    (0 until 4).foreach { i =>
      val row = (0 until 6).map(y(i, _))
      val mu = row.sum / 6
      val v = row.map(a => (a - mu) * (a - mu)).sum / 6
      assert(math.abs(mu) < 1e-9)
      assert(math.abs(v - 1.0) < 1e-3)
    }
  }

  test("embedding lookup returns rows of the table") {
    implicit val tp: Tape = NoTape
    val e = new Embedding(Tensor(4, 2)((i, j) => i * 10 + j))
    val y = e(Array(3, 0, 3))
    assert(y(0, 0) == 30.0 && y(1, 1) == 1.0 && y(2, 1) == 31.0)
  }

  test("transformer layer preserves shape") {
    implicit val tp: Tape = NoTape
    val l = TransformerLayer(8, 2, 16, rnd)
    val y = l(Tensor.glorot(5, 8, rnd))
    assert(y.rows == 5 && y.cols == 8)
  }

  test("encoder stack preserves shape") {
    implicit val tp: Tape = NoTape
    val enc = TransformerEncoder(8, 2, 16, 3, rnd)
    assert(enc.layers.size == 3)
    val y = enc(Tensor.glorot(7, 8, rnd))
    assert(y.rows == 7 && y.cols == 8)
  }

  test("gru cell output shape and boundedness") {
    implicit val tp: Tape = NoTape
    val g = GruCell(3, 5, rnd)
    val h = g(Tensor.glorot(1, 3, rnd), Tensor.zeros(1, 5))
    assert(h.rows == 1 && h.cols == 5)
    assert(h.data.forall(v => math.abs(v) <= 1.0 + 1e-9)) // convex comb of tanh and 0
  }

  test("BiGru's row gathers give the slice-and-concat reversal's values and gradients bit for bit") {
    val gru = BiGru(5, 6, new Random(3))
    val xs = Tensor(7, 5)((_, _) => rnd.nextGaussian())
    // The reversal as one sliceRows per row plus concatRows, each way.
    def sliced(tp: Tape): Tensor = {
      implicit val t: Tape = tp
      val h0 = Tensor.zeros(1, 6)
      val f = gru.fwd.unroll(xs, h0)
      val revIdx = (xs.rows - 1 to 0 by -1).toArray
      val rev = Ops.concatRows(revIdx.toSeq.map(i => Ops.sliceRows(xs, i, i + 1)))
      val bRev = gru.bwd.unroll(rev, h0)
      val b = Ops.concatRows(revIdx.toSeq.map(i => Ops.sliceRows(bRev, i, i + 1)))
      gru.proj(Ops.concatCols(f, b))
    }
    def lossAndGrads(out: Tape => Tensor): Seq[Seq[Long]] = {
      val tp = new GradTape
      val y = out(tp)
      tp.backward(Ops.sumAll(Ops.tanh(y)(tp))(tp))
      (y +: xs +: gru.params).map(t => (if (t eq y) t.data else tp.grad(t)).toSeq.map(java.lang.Double.doubleToLongBits))
    }
    assert(lossAndGrads(tp => gru(xs)(tp)) == lossAndGrads(sliced))
  }

  test("multi-head attention requires divisible dims") {
    intercept[IllegalArgumentException](MultiHeadAttention(7, 2, rnd))
  }

  test("adam fits a linear regression") {
    implicit def tp: Tape = NoTape
    val w = Tensor.glorot(3, 1, rnd)
    val opt = new Adam(Seq(w), lr = 0.05)
    val xs = Tensor(64, 3)((_, _) => rnd.nextGaussian())
    val trueW = Array(1.5, -2.0, 0.5)
    val ys = (0 until 64).map(i => (0 until 3).map(j => xs(i, j) * trueW(j)).sum).toArray
    (1 to 300).foreach { _ =>
      val t2 = new GradTape
      val loss = Ops.mseSum(Ops.matmul(xs, w)(t2), ys)(t2)
      t2.backward(loss)
      opt.step(Seq(t2.grad(w)))
    }
    (0 until 3).foreach(j => assert(math.abs(w(j, 0) - trueW(j)) < 0.02, s"w$j=${w(j, 0)}"))
  }

  test("adam + mlp fits XOR") {
    val m = Mlp(2, 8, 1, new Random(7))
    val opt = new Adam(m.params, lr = 0.02)
    val xs = Tensor.fromRows(Seq(Array(0.0, 0), Array(0.0, 1), Array(1.0, 0), Array(1.0, 1)))
    val labels = Array(0.0, 1.0, 1.0, 0.0)
    (1 to 800).foreach { _ =>
      val t2 = new GradTape
      val loss = Ops.bceLogitsSum(m(xs)(t2), labels)(t2)
      t2.backward(loss)
      opt.step(m.params.map(t2.grad))
    }
    implicit val tp: Tape = NoTape
    val out = Ops.sigmoid(m(xs))
    labels.indices.foreach(i => assert(math.abs(out(i, 0) - labels(i)) < 0.1, s"xor $i -> ${out(i, 0)}"))
  }

  test("trainer data-parallel step equals mean-gradient step") {
    // Two params, quadratic loss per sample; check loss decreases and is
    // deterministic across runs with identical inputs.
    val w = new Tensor(1, 1, Array(3.0))
    val opt = new Adam(Seq(w), lr = 0.1)
    val batch = (1 to 8).map(_.toDouble).toIndexedSeq
    val l1 = Trainer.step[Double](batch, Seq(w), opt,
      (x, tp) => Ops.mseSum(Ops.scale(w, x)(tp), Array(0.0))(tp))
    assert(l1 > 0)
    val l2 = Trainer.step[Double](batch, Seq(w), opt,
      (x, tp) => Ops.mseSum(Ops.scale(w, x)(tp), Array(0.0))(tp))
    assert(l2 < l1)
  }

  test("Trainer.fit visits every sample once per epoch in batches of batchSize") {
    // Loss (s + 1) * w: the gradient is always positive, so every step moves
    // w and the value of w a sample sees identifies its batch.
    val w = new Tensor(1, 1, Array(1.0))
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Double, Int)]()
    var epoch = 0
    def log(line: String): Unit = { epoch += 1; assert(line.startsWith(s"unit epoch $epoch loss ")) }
    val losses = Trainer.fit((0 until 10).toIndexedSeq, Seq(w), new Adam(Seq(w)), epochs = 3,
      batchSize = 4, seed = 5L, label = "unit", log = log) { (s, tp) =>
      seen.add((epoch, w.data(0), s))
      Ops.scale(w, s + 1.0)(tp)
    }
    assert(losses.length == 3 && epoch == 3)
    val visits = seen.toArray(Array.empty[(Int, Double, Int)]).toSeq
    (0 until 3).foreach { ep =>
      val inEpoch = visits.filter(_._1 == ep)
      assert(inEpoch.map(_._3).sorted == (0 until 10))
      assert(inEpoch.groupBy(_._2).values.map(_.size).toSeq.sorted == Seq(2, 4, 4))
    }
  }

  test("Trainer.fit with one seed leaves identical parameters") {
    val data = {
      val r = new Random(11)
      (0 until 40).map(_ => (Array(r.nextGaussian(), r.nextGaussian()), r.nextGaussian()))
    }
    def run(seed: Long): (Seq[Double], Seq[Array[Double]]) = {
      val m = Mlp(2, 8, 1, new Random(3))
      val losses = Trainer.fit(data, m.params, new Adam(m.params, lr = 0.01), epochs = 3,
        batchSize = 6, seed = seed, label = "mlp", log = _ => ()) {
        case ((x, y), tp) => Ops.mseSum(m(new Tensor(1, 2, x))(tp), Array(y))(tp)
      }
      (losses, m.params.map(_.data))
    }
    val (l1, p1) = run(9L)
    val (l2, p2) = run(9L)
    assert(l1 == l2)
    assert(p1.zip(p2).forall { case (a, b) => a.sameElements(b) })
    val (_, p3) = run(10L)
    assert(!p1.zip(p3).forall { case (a, b) => a.sameElements(b) }, "the seed must matter")
  }

  test("Trainer.step's update equals 3 chunks on their own tapes summed in order, bit for bit") {
    // The chunks do not depend on the host's core count: a batch is always
    // cut into 3 in sample order, whatever the pool's size.
    val r = new Random(11)
    val data = (0 until 42).map(_ => (Array(r.nextGaussian(), r.nextGaussian()), r.nextGaussian()))
    def lossOf(m: Mlp)(s: (Array[Double], Double), tp: Tape): Tensor =
      Ops.mseSum(m(new Tensor(1, 2, s._1))(tp), Array(s._2))(tp)
    val (a, b) = (Mlp(2, 8, 1, new Random(3)), Mlp(2, 8, 1, new Random(3)))
    val (optA, optB) = (new Adam(a.params, lr = 0.01), new Adam(b.params, lr = 0.01))
    Seq(data.take(10), data.slice(10, 42)).foreach { batch =>
      val lossA = Trainer.step(batch, a.params, optA, lossOf(a))
      val chunks = batch.grouped(math.ceil(batch.size / 3.0).toInt).toSeq
      assert(chunks.length == 3)
      val acc = b.params.map(p => new Array[Double](p.size))
      var lossB = 0.0
      chunks.foreach { chunk =>
        val tp = new GradTape
        val losses = chunk.map(lossOf(b)(_, tp))
        var chunkLoss = 0.0
        losses.foreach(l => chunkLoss += l.data(0))
        lossB += chunkLoss
        tp.backward(losses.reduceLeft(Ops.add(_, _)(tp)))
        b.params.zip(acc).foreach { case (p, g) =>
          val gp = tp.grad(p)
          g.indices.foreach(i => g(i) += gp(i) / batch.size)
        }
      }
      optB.step(acc)
      assert(lossA == lossB / batch.size)
      assert(a.params.zip(b.params).forall { case (pa, pb) => pa.data.sameElements(pb.data) })
    }
  }

  test("gradient clipping caps the applied norm") {
    val w = new Tensor(1, 1, Array(0.0))
    val opt = new Adam(Seq(w), lr = 1.0, clipNorm = 1.0)
    opt.step(Seq(Array(1000.0)))
    // First Adam step magnitude is lr regardless, but must be finite/sane.
    assert(math.abs(w.data(0)) <= 1.0 + 1e-9)
  }
}
