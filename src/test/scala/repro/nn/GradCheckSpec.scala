package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Central-difference gradient checks for every autodiff op. */
object NumGrad {
  /** Max relative error between tape gradients and numerical gradients of
    * `f` (a scalar-producing forward pass) w.r.t. each tensor in `inputs`.
    */
  def check(inputs: Seq[Tensor], f: Tape => Tensor, h: Double = 1e-5): Double = {
    val tape = new GradTape
    val out = f(tape)
    tape.backward(out)
    var worst = 0.0
    inputs.foreach { x =>
      val g = tape.grad(x)
      var i = 0
      while (i < x.size) {
        val orig = x.data(i)
        x.data(i) = orig + h
        val fPlus = f(NoTape).data(0)
        x.data(i) = orig - h
        val fMinus = f(NoTape).data(0)
        x.data(i) = orig
        val num = (fPlus - fMinus) / (2 * h)
        val denom = math.max(1.0, math.max(math.abs(num), math.abs(g(i))))
        worst = math.max(worst, math.abs(num - g(i)) / denom)
        i += 1
      }
    }
    worst
  }
}

/** Every op of two or more inputs, as a scalar loss over inputs of the
  * given shapes. Each input is read by a non-linear term of the loss, so
  * every input's gradient depends on the others' values.
  */
object MultiInputOps {
  final case class Case(name: String, shapes: Seq[(Int, Int)], loss: Seq[Tensor] => Tape => Tensor)

  private def sumTanh(y: Tensor)(implicit tp: Tape): Tensor = Ops.sumAll(Ops.tanh(y))

  val cases: Seq[Case] = Seq(
    Case("matmul", Seq((3, 4), (4, 5)), xs => implicit tp => sumTanh(Ops.matmul(xs(0), xs(1)))),
    Case("add", Seq((3, 3), (3, 3)), xs => implicit tp => sumTanh(Ops.add(xs(0), xs(1)))),
    Case("addRow", Seq((4, 3), (1, 3)), xs => implicit tp => sumTanh(Ops.addRow(xs(0), xs(1)))),
    Case("mulElem", Seq((3, 3), (3, 3)), xs => implicit tp => sumTanh(Ops.mulElem(xs(0), xs(1)))),
    Case("concatCols", Seq((3, 2), (3, 4)), xs => implicit tp => sumTanh(Ops.concatCols(xs(0), xs(1)))),
    Case("concatRows", Seq((2, 3), (4, 3), (1, 3)), xs => implicit tp => sumTanh(Ops.concatRows(xs))),
    Case("layerNorm", Seq((4, 6), (1, 6), (1, 6)), xs => implicit tp => sumTanh(Ops.layerNorm(xs(0), xs(1), xs(2)))),
  )

  /** Fresh random inputs of `c`, with input `constant` marked constant. */
  def inputs(c: Case, constant: Int, rnd: Random): Seq[Tensor] =
    c.shapes.zipWithIndex.map { case ((r, k), i) =>
      val t = Tensor(r, k)((_, _) => rnd.nextGaussian() * 0.5)
      if (i == constant) t.markConstant() else t
    }
}

class GradCheckSpec extends AnyFunSuite {
  private val rnd = new Random(1234)
  private def randT(r: Int, c: Int): Tensor = Tensor(r, c)((_, _) => rnd.nextGaussian() * 0.5)
  private val Tol = 1e-5

  test("matmul gradient") {
    val a = randT(3, 4); val b = randT(4, 5)
    assert(NumGrad.check(Seq(a, b), implicit tp => Ops.sumAll(Ops.matmul(a, b))) < Tol)
  }

  test("matmul chained gradient") {
    val a = randT(2, 3); val b = randT(3, 3); val c = randT(3, 2)
    assert(NumGrad.check(Seq(a, b, c),
      implicit tp => Ops.sumAll(Ops.matmul(Ops.matmul(a, b), c))) < Tol)
  }

  test("transpose gradient") {
    val a = randT(3, 4)
    assert(NumGrad.check(Seq(a),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.transpose(a), Ops.transpose(a)))) < Tol)
  }

  test("add gradient") {
    val a = randT(3, 3); val b = randT(3, 3)
    assert(NumGrad.check(Seq(a, b),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.add(a, b), Ops.add(a, b)))) < Tol)
  }

  test("addRow gradient") {
    val a = randT(4, 3); val b = randT(1, 3)
    assert(NumGrad.check(Seq(a, b),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.addRow(a, b), Ops.addRow(a, b)))) < Tol)
  }

  test("mulElem gradient") {
    val a = randT(3, 3); val b = randT(3, 3)
    assert(NumGrad.check(Seq(a, b), implicit tp => Ops.sumAll(Ops.mulElem(a, b))) < Tol)
  }

  test("scale gradient") {
    val a = randT(3, 3)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.sumAll(Ops.scale(a, -2.5))) < Tol)
  }

  test("relu gradient") {
    // Keep values away from the kink at 0.
    val a = Tensor(3, 3)((_, _) => { val v = rnd.nextGaussian(); if (math.abs(v) < 0.05) 0.5 else v })
    assert(NumGrad.check(Seq(a), implicit tp => Ops.sumAll(Ops.relu(a))) < Tol)
  }

  test("sigmoid gradient") {
    val a = randT(3, 3)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.sumAll(Ops.sigmoid(a))) < Tol)
  }

  test("tanh gradient") {
    val a = randT(3, 3)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.sumAll(Ops.tanh(a))) < Tol)
  }

  test("softmaxRows gradient") {
    val a = randT(3, 5); val w = randT(3, 5)
    assert(NumGrad.check(Seq(a),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.softmaxRows(a), w))) < Tol)
  }

  test("layerNorm gradient") {
    val a = randT(4, 6); val g = randT(1, 6); val b = randT(1, 6); val w = randT(4, 6)
    assert(NumGrad.check(Seq(a, g, b),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.layerNorm(a, g, b), w))) < 1e-4)
  }

  test("concatCols gradient") {
    val a = randT(3, 2); val b = randT(3, 4)
    assert(NumGrad.check(Seq(a, b),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.concatCols(a, b), Ops.concatCols(a, b)))) < Tol)
  }

  test("concatRows gradient") {
    val a = randT(2, 3); val b = randT(4, 3)
    assert(NumGrad.check(Seq(a, b),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.concatRows(Seq(a, b)), Ops.concatRows(Seq(a, b))))) < Tol)
  }

  test("sliceCols gradient") {
    val a = randT(3, 6)
    assert(NumGrad.check(Seq(a),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.sliceCols(a, 1, 4), Ops.sliceCols(a, 1, 4)))) < Tol)
  }

  test("sliceRows gradient") {
    val a = randT(5, 3)
    assert(NumGrad.check(Seq(a),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.sliceRows(a, 1, 4), Ops.sliceRows(a, 1, 4)))) < Tol)
  }

  test("rows gather gradient with repeated indices") {
    val emb = randT(6, 4)
    val idx = Array(0, 2, 2, 5)
    assert(NumGrad.check(Seq(emb),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.rows(emb, idx), Ops.rows(emb, idx)))) < Tol)
  }

  test("meanRows gradient") {
    val a = randT(4, 3)
    assert(NumGrad.check(Seq(a),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.meanRows(a), Ops.meanRows(a)))) < Tol)
  }

  test("tileRows gradient") {
    val a = randT(1, 3); val w = randT(5, 3)
    assert(NumGrad.check(Seq(a),
      implicit tp => Ops.sumAll(Ops.mulElem(Ops.tileRows(a, 5), w))) < Tol)
  }

  test("bceLogitsSum gradient") {
    val a = randT(4, 1)
    val labels = Array(1.0, 0.0, 1.0, 0.0)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.bceLogitsSum(a, labels)) < Tol)
  }

  test("ceRowsSum gradient") {
    val a = randT(3, 5)
    val t = Array(0, 3, 2)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.ceRowsSum(a, t)) < Tol)
  }

  test("maeSum gradient away from kink") {
    val a = Tensor(3, 1)((_, _) => rnd.nextGaussian() + 3.0)
    val target = Array(0.1, 0.2, 0.3)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.maeSum(a, target)) < Tol)
  }

  test("mseSum gradient") {
    val a = randT(3, 2)
    val target = Array(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert(NumGrad.check(Seq(a), implicit tp => Ops.mseSum(a, target)) < Tol)
  }

  test("with one input constant, every other input's gradient matches the numerical one") {
    for (c <- MultiInputOps.cases; k <- c.shapes.indices) {
      val xs = MultiInputOps.inputs(c, k, rnd)
      val others = xs.patch(k, Nil, 1)
      assert(NumGrad.check(others, c.loss(xs)) < 1e-4, s"${c.name}, input $k constant")
    }
  }

  test("mlp end-to-end gradient") {
    val mlp = Mlp(4, 8, 2, rnd)
    val x = randT(3, 4)
    val target = Array.fill(6)(rnd.nextGaussian())
    assert(NumGrad.check(mlp.params :+ x,
      implicit tp => Ops.mseSum(mlp(x), target)) < 1e-4)
  }

  test("transformer layer end-to-end gradient") {
    val layer = TransformerLayer(8, 2, 16, rnd)
    val x = randT(4, 8)
    val target = Array.fill(32)(rnd.nextGaussian())
    assert(NumGrad.check(layer.params :+ x,
      implicit tp => Ops.mseSum(layer(x), target)) < 1e-3)
  }

  test("gru cell end-to-end gradient") {
    val cell = GruCell(3, 6, rnd)
    val x = randT(1, 3); val h = randT(1, 6)
    val target = Array.fill(6)(rnd.nextGaussian())
    assert(NumGrad.check(cell.params ++ Seq(x, h),
      implicit tp => Ops.mseSum(cell(x, h), target)) < 1e-4)
  }

  test("gru unroll gradient") {
    val cell = GruCell(3, 4, rnd)
    val xs = randT(5, 3); val h0 = Tensor.zeros(1, 4)
    val target = Array.fill(20)(rnd.nextGaussian())
    assert(NumGrad.check(cell.params :+ xs,
      implicit tp => Ops.mseSum(cell.unroll(xs, h0), target)) < 1e-4)
  }

  test("bigru gradient") {
    val bi = BiGru(3, 4, rnd)
    val xs = randT(4, 3)
    val target = Array.fill(16)(rnd.nextGaussian())
    assert(NumGrad.check(bi.params :+ xs,
      implicit tp => Ops.mseSum(bi(xs), target)) < 1e-4)
  }

  test("cross attention gradient") {
    val mha = MultiHeadAttention(8, 2, rnd)
    val q = randT(3, 8); val kv = randT(5, 8)
    val target = Array.fill(24)(rnd.nextGaussian())
    assert(NumGrad.check(mha.params ++ Seq(q, kv),
      implicit tp => Ops.mseSum(mha(q, kv), target)) < 1e-3)
  }
}
