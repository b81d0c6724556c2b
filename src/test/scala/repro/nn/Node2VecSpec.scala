package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.core.{MmaConfig, MmaModel, Trmma, TrmmaConfig, TrmmaModel, TruthMatcher}
import repro.recovery.{SeqRecConfig, SeqRecModel}
import repro.traj.Recovered

class Node2VecSpec extends AnyFunSuite {
  private lazy val emb = TestWorld.node2vec
  private val net = TestWorld.net

  private def cos(a: Int, b: Int): Double = {
    var d = 0.0; var na = 0.0; var nb = 0.0
    (0 until emb.cols).foreach { j =>
      d += emb(a, j) * emb(b, j); na += emb(a, j) * emb(a, j); nb += emb(b, j) * emb(b, j)
    }
    d / math.max(1e-12, math.sqrt(na) * math.sqrt(nb))
  }

  test("dimensions match the segment count") {
    assert(emb.rows == net.numSegments && emb.cols == 32)
  }

  test("embeddings are finite and non-degenerate") {
    assert(emb.data.forall(v => !v.isNaN && !v.isInfinite))
    val norms = (0 until emb.rows).map(i => (0 until emb.cols).map(j => emb(i, j) * emb(i, j)).sum)
    assert(norms.count(_ > 1e-6) > emb.rows * 0.95)
  }

  test("graph neighbours are more similar than random pairs on average") {
    val rnd = new scala.util.Random(3)
    val neighbourSims = (0 until 300).flatMap { _ =>
      val s = rnd.nextInt(net.numSegments)
      net.nextSegments(s).headOption.map(n => cos(s, n))
    }
    val randomSims = (0 until 300).map { _ =>
      cos(rnd.nextInt(net.numSegments), rnd.nextInt(net.numSegments))
    }
    val nAvg = neighbourSims.sum / neighbourSims.size
    val rAvg = randomSims.sum / randomSims.size
    assert(nAvg > rAvg + 0.05, f"neighbour $nAvg%.3f vs random $rAvg%.3f")
  }

  test("training is deterministic in the seed") {
    val a = Node2Vec.train(net, dim = 8, walksPerSeg = 1, epochs = 1, seed = 5)
    val b = Node2Vec.train(net, dim = 8, walksPerSeg = 1, epochs = 1, seed = 5)
    assert(a.data.sameElements(b.data))
  }

  test("MMA, TRMMA and MTrajRec take the embedding width from a table of any width") {
    val n2v = Node2Vec.train(net, dim = 16, walksPerSeg = 1, epochs = 1)
    val (train, t) = (TestWorld.trainSet.head, TestWorld.testSet.head)
    def finiteLoss(loss: Tape => Tensor): Unit = {
      val tp = new GradTape
      val l = loss(tp)
      assert(l.data.forall(v => !v.isNaN && !v.isInfinite))
      tp.backward(l)
    }
    def alignedWithDense(out: Recovered): Unit = {
      assert(out.points.length == t.dense.length)
      out.points.zip(t.dense).foreach { case (p, d) => assert(math.abs(p.t - d.t) < 1e-6) }
    }
    val mma = MmaModel.init(net, MmaConfig(), n2v)
    finiteLoss(tp => mma.loss(mma.prepare(train, withLabels = true))(tp))
    assert(mma.predictSegments(t).length == t.sparse.length)
    val trmma = TrmmaModel.init(net, TrmmaConfig(), n2v)
    finiteLoss(tp => trmma.loss(trmma.prepareTrain(train))(tp))
    alignedWithDense(new Trmma(trmma, new TruthMatcher, TestWorld.cfg.epsilon).recover(t))
    val seq = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), TestWorld.cfg.epsilon, n2v)
    finiteLoss(tp => seq.loss(seq.prepare(train, withLabels = true))(tp))
    alignedWithDense(seq.recover(t))
  }
}
