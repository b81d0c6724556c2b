package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.geo.XY
import repro.mm.Nearest
import repro.traj.Traj

class MmaSpec extends AnyFunSuite {
  import TestWorld._

  private lazy val model: MmaModel = {
    val m = MmaModel.init(net, MmaConfig(), node2vec)
    val losses = MmaModel.train(m, trainSet, epochs = 6, log = s => info(s))
    MmaSpec.losses = losses
    m
  }

  private def pointAccuracy(f: Traj => Array[Int], ts: Seq[Traj]): Double = {
    var hit = 0; var tot = 0
    ts.foreach { t =>
      val pred = f(t)
      pred.indices.foreach { i => if (pred(i) == t.sparseTruthSeg(i)) hit += 1; tot += 1 }
    }
    hit.toDouble / tot
  }

  test("training loss decreases") {
    model // force training
    assert(MmaSpec.losses.head > MmaSpec.losses.last, s"losses ${MmaSpec.losses}")
  }

  test("candidate sets contain the truth segment almost always (kc=10)") {
    val s = model.prepare(trainSet.head, withLabels = true)
    assert(s.cands.forall(_.length <= 10))
    val withTruth = s.labels.count(_.sum > 0)
    assert(withTruth >= s.labels.length - 1)
  }

  test("prepared features have MmaModel.NumFeats values per candidate, all in [-1,1]") {
    val s = model.prepare(trainSet.head, withLabels = false)
    s.cands.indices.foreach { i =>
      assert(s.feats(i).length == s.cands(i).length * repro.core.MmaModel.NumFeats)
      assert(s.feats(i).forall(v => v >= -1.0001 && v <= 1.0001))
    }
  }

  test("point-level accuracy clearly beats Nearest on held-out data") {
    val nearest = new Nearest(net, planner)
    val accMma = pointAccuracy(model.predictSegments, testSet)
    val accNear = pointAccuracy(nearest.matchPoints, testSet)
    info(f"MMA point acc $accMma%.3f vs Nearest $accNear%.3f")
    assert(accMma > accNear + 0.02, f"MMA $accMma%.3f vs Nearest $accNear%.3f")
    assert(accMma > 0.72, f"MMA accuracy too low: $accMma%.3f")
  }

  test("predictSegments returns only candidates near the point") {
    testSet.take(5).foreach { t =>
      val pred = model.predictSegments(t)
      pred.indices.foreach { i =>
        val cands = net.nearestSegments(XY(t.sparse(i).x, t.sparse(i).y), model.cfg.kc)
        assert(cands.contains(pred(i)))
      }
    }
  }

  test("predictSegments is deterministic") {
    val t = testSet.head
    assert(model.predictSegments(t).toSeq == model.predictSegments(t).toSeq)
  }

  test("Mma end-to-end route is connected and covers per-point segments") {
    val mma = new Mma(model, planner)
    testSet.take(10).foreach { t =>
      val mr = mma.matchTraj(t)
      assert(mr.route.nonEmpty)
      mr.perPoint.foreach(s => assert(mr.route.contains(s)))
      mr.route.toSeq.sliding(2).foreach {
        case Seq(a, b) => assert(net.segments(a).to == net.segments(b).from, s"$a->$b")
        case _         => ()
      }
    }
  }

  test("ablation flags change the forward pass") {
    val mNoDir = MmaModel.init(net, MmaConfig(useDirectional = false), node2vec)
    val s = mNoDir.prepare(trainSet.head, withLabels = false)
    assert(s.feats.forall(_.grouped(repro.core.MmaModel.NumFeats).forall(g => g.take(4).forall(_ == 0.0))))
    val mNoCtx = MmaModel.init(net, MmaConfig(useContext = false), node2vec)
    // Forward must still run and produce candidate predictions.
    assert(mNoCtx.predictSegments(trainSet.head).length == trainSet.head.sparse.length)
  }
}

object MmaSpec {
  @volatile var losses: Seq[Double] = Nil
}
