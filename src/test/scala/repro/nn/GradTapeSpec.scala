package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.core.{MmaConfig, MmaModel, TrmmaConfig, TrmmaModel}
import repro.recovery.{SeqRecConfig, SeqRecModel}

/** [[GradTape]], which finds an op output's gradient by its slot, against
  * [[ReferenceTape]], which finds every gradient by tensor identity: the
  * same ops accumulate into the same arrays in the same order, so every
  * gradient must be equal bit for bit.
  */
class GradTapeSpec extends AnyFunSuite {
  import TestWorld._

  private def bits(g: Array[Double]): Seq[Long] = g.toSeq.map(java.lang.Double.doubleToLongBits)

  /** Loss value and every parameter gradient of `loss`, on `tape`. */
  private def run(tape: Tape, params: Seq[Tensor], loss: Tape => Tensor): (Seq[Long], Seq[Seq[Long]]) = {
    val l = loss(tape)
    tape match {
      case t: GradTape => t.backward(l)
      case t: ReferenceTape => t.backward(l)
      case other => fail(s"no backward on $other")
    }
    (bits(l.data), params.map(p => bits(tape.grad(p))))
  }

  private def assertSameGradients(params: Seq[Tensor], loss: Tape => Tensor): Unit = {
    val (lossA, gradsA) = run(new GradTape, params, loss)
    val (lossB, gradsB) = run(new ReferenceTape, params, loss)
    assert(lossA == lossB)
    params.indices.foreach(i => assert(gradsA(i) == gradsB(i), s"parameter $i (${params(i)})"))
    assert(gradsA.exists(_.exists(_ != 0L)), "every gradient is zero")
  }

  test("TRMMA loss gradients are bit-equal under GradTape and the identity-map tape") {
    val m = TrmmaModel.init(net, TrmmaConfig(), node2vec)
    trainSet.take(6).map(m.prepareTrain).foreach(s => assertSameGradients(m.params, tp => m.loss(s)(tp)))
  }

  test("MMA loss gradients are bit-equal under GradTape and the identity-map tape") {
    val m = MmaModel.init(net, MmaConfig(), node2vec)
    trainSet.take(6).map(m.prepare(_, withLabels = true))
      .foreach(s => assertSameGradients(m.params, tp => m.loss(s)(tp)))
  }

  test("MTrajRec loss gradients (BiGru encoder) are bit-equal under both tapes") {
    val m = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), cfg.epsilon, node2vec)
    trainSet.take(4).map(m.prepare(_, withLabels = true))
      .foreach(s => assertSameGradients(m.params, tp => m.loss(s)(tp)))
  }

  test("with one input of a multi-input op constant, the other gradients are bit-equal under both tapes") {
    val rnd = new scala.util.Random(3)
    for (c <- MultiInputOps.cases; k <- c.shapes.indices) {
      val xs = MultiInputOps.inputs(c, k, rnd)
      val others = xs.patch(k, Nil, 1)
      assertSameGradients(others, c.loss(xs))
      val tape = new GradTape
      tape.backward(c.loss(xs)(tape))
      intercept[IllegalArgumentException](tape.grad(xs(k)))
    }
  }

  test("an op over constants only is not recorded, and its output is constant") {
    val rnd = new scala.util.Random(4)
    for (c <- MultiInputOps.cases) {
      val xs = c.shapes.map { case (r, k) => Tensor(r, k)((_, _) => rnd.nextGaussian()).markConstant() }
      val tape = new GradTape
      val loss = c.loss(xs)(tape)
      // The loss is the op followed by two single-input ops: none of the
      // three was given a slot on the tape.
      assert(loss.constant && loss.tapeId == 0L, c.name)
      intercept[IllegalArgumentException](tape.backward(loss))
      xs.foreach(x => intercept[IllegalArgumentException](tape.grad(x)))
      // The identity-map tape ignores the mark and records every op.
      val ref = new ReferenceTape
      val refLoss = c.loss(xs)(ref)
      assert(!refLoss.constant && bits(refLoss.data) == bits(loss.data))
      ref.backward(refLoss)
      assert(xs.exists(x => ref.grad(x).exists(_ != 0.0)), c.name)
    }
  }

  test("MMA's loss never asks for the frozen Node2Vec table's gradient") {
    val m = MmaModel.init(net, MmaConfig(), node2vec)
    assert(m.segEmb.table.constant && !m.params.exists(_.constant))
    trainSet.take(3).map(m.prepare(_, withLabels = true)).foreach { s =>
      // GradTape throws if anything asks for a constant's gradient.
      val tape = new GradTape
      tape.backward(m.loss(s)(tape))
      intercept[IllegalArgumentException](tape.grad(m.segEmb.table))
      assert(m.params.exists(p => tape.grad(p).exists(_ != 0.0)))
    }
  }

  test("a parameter marked constant by mistake fails the training step") {
    val rnd = new scala.util.Random(6)
    val lin = Linear(3, 2, rnd)
    val x = Tensor(4, 3)((_, _) => rnd.nextGaussian()).markConstant()
    lin.w.markConstant()
    val opt = new Adam(lin.params)
    val e = intercept[IllegalArgumentException] {
      Trainer.step(IndexedSeq(0, 1), lin.params, opt, (_: Int, tp: Tape) => Ops.sumAll(Ops.tanh(lin(x)(tp))(tp))(tp))
    }
    assert(e.getMessage.contains("constant"))
  }

  test("a tensor recorded on one tape is a leaf on another") {
    val rnd = new scala.util.Random(5)
    def randT(r: Int, c: Int) = Tensor(r, c)((_, _) => rnd.nextGaussian())
    val x = randT(3, 4); val w = randT(4, 5); val v = randT(5, 2)
    def secondHalf(y: Tensor)(implicit tp: Tape) = Ops.sumAll(Ops.tanh(Ops.matmul(Ops.relu(y), v)))
    // y is an op output of the first tape; on the second it must behave as
    // it did when every tape keyed gradients by identity.
    val first = new GradTape
    val y = Ops.matmul(x, w)(first)
    val (lossA, gradsA) = run(new GradTape, Seq(y, v, w, x), secondHalf(y)(_))
    val refY = Ops.matmul(x, w)(new ReferenceTape)
    val (lossB, gradsB) = run(new ReferenceTape, Seq(refY, v, w, x), secondHalf(refY)(_))
    assert(lossA == lossB)
    assert(gradsA == gradsB)
    assert(gradsA(0).exists(_ != 0L) && gradsA(1).exists(_ != 0L))
    assert(gradsA(2).forall(_ == 0L) && gradsA(3).forall(_ == 0L), "gradient leaked through the first tape")
    // The first tape still owns y: its backward reaches x and w.
    val z = Ops.sumAll(y)(first)
    first.backward(z)
    assert(first.grad(w).exists(_ != 0.0) && first.grad(y).forall(_ == 1.0))
  }
}
