package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.mm.MapMatcher
import repro.recovery.RouteArc
import repro.traj.{MatchedRoute, Traj}

/** Oracle matcher: returns the ground truth (isolates recovery quality from
  * map-matching quality in tests).
  */
class TruthMatcher extends MapMatcher {
  val name = "Truth"
  def matchTraj(t: Traj): MatchedRoute = MatchedRoute(t.id, t.sparseTruthSeg, t.route)
}

class TrmmaSpec extends AnyFunSuite {
  import TestWorld._

  private lazy val model: TrmmaModel = {
    val m = TrmmaModel.init(net, TrmmaConfig(), node2vec)
    TrmmaSpec.losses = TrmmaModel.train(m, trainSet, epochs = 10, log = s => info(s))
    m
  }

  test("training loss decreases") {
    model
    assert(TrmmaSpec.losses.head > TrmmaSpec.losses.last, s"losses ${TrmmaSpec.losses}")
  }

  test("prepared training sample has monotone route positions") {
    trainSet.take(20).foreach { t =>
      val s = model.prepareTrain(t)
      s.densePos.toSeq.sliding(2).foreach {
        case Seq(a, b) => assert(a <= b)
        case _         => ()
      }
      assert(s.densePos.forall(p => p >= 0 && p < s.route.length))
      s.denseSeg.indices.foreach(j => assert(s.route(s.densePos(j)) == s.denseSeg(j)))
    }
  }

  test("recovery output aligns with the dense ground-truth timeline") {
    val rec = new Trmma(model, new TruthMatcher, cfg.epsilon)
    testSet.take(20).foreach { t =>
      val out = rec.recover(t)
      assert(out.points.length == t.dense.length,
        s"got ${out.points.length} points vs ${t.dense.length}")
      out.points.zip(t.dense).foreach { case (p, d) =>
        assert(math.abs(p.t - d.t) < 1e-6)
      }
    }
  }

  test("recovered ratios lie in [0, 1)") {
    val rec = new Trmma(model, new TruthMatcher, cfg.epsilon)
    testSet.take(20).foreach { t =>
      rec.recover(t).points.foreach(p => assert(p.r >= 0 && p.r < 1, s"ratio ${p.r}"))
    }
  }

  test("recovered segments come from the route; gaps follow route order") {
    // The trained model rarely wants to step back along the route; an
    // untrained one's argmax is arbitrary, so there the constraint binds.
    val untrained = TrmmaModel.init(net, TrmmaConfig(), node2vec)
    Seq("trained" -> model, "untrained" -> untrained).foreach { case (name, m) =>
      val rec = new Trmma(m, new TruthMatcher, cfg.epsilon)
      testSet.take(20).foreach { t =>
        val out = rec.recover(t)
        // Order constraint (Eq. 17): every point's segment occurs on the
        // route at or after the previous point's position, and the position
        // advances to that occurrence, as decode advances it.
        var prevPos = 0
        out.points.zipWithIndex.foreach { case (p, j) =>
          val pos = RouteArc.posOf(t.route, p.seg, prevPos)
          assert(pos >= 0,
            s"$name traj ${t.id} slot $j: segment ${p.seg} not on the route at or after position $prevPos")
          prevPos = pos
        }
      }
    }
  }

  test("observed sparse points are passed through exactly") {
    val rec = new Trmma(model, new TruthMatcher, cfg.epsilon)
    val t = testSet.head
    val out = rec.recover(t)
    t.sparseIdxInDense.zipWithIndex.foreach { case (di, si) =>
      assert(out.points(di).seg == t.sparseTruthSeg(si))
    }
  }

  test("recovery accuracy with truth route is well above naive copy-previous") {
    val rec = new Trmma(model, new TruthMatcher, cfg.epsilon)
    var hit = 0; var tot = 0; var naiveHit = 0
    testSet.foreach { t =>
      val out = rec.recover(t)
      // naive: every missing slot copies the previous observed segment
      var lastObservedSeg = t.dense(0).seg
      val observed = t.sparseIdxInDense.toSet
      t.dense.indices.foreach { j =>
        if (observed.contains(j)) lastObservedSeg = t.dense(j).seg
        else {
          if (out.points(j).seg == t.dense(j).seg) hit += 1
          if (lastObservedSeg == t.dense(j).seg) naiveHit += 1
          tot += 1
        }
      }
    }
    val acc = hit.toDouble / tot
    val naive = naiveHit.toDouble / tot
    info(f"TRMMA missing-point acc $acc%.3f vs copy-previous $naive%.3f")
    assert(acc > naive + 0.05, f"$acc%.3f vs naive $naive%.3f")
  }

  test("TRMMA-DF ablation (H = R) still runs and differs") {
    val mDf = TrmmaModel.init(net, TrmmaConfig(useDualFormer = false), node2vec)
    val rec = new Trmma(mDf, new TruthMatcher, cfg.epsilon, name = "TRMMA-DF")
    val out = rec.recover(testSet.head)
    assert(out.points.length == testSet.head.dense.length)
  }
}

object TrmmaSpec {
  @volatile var losses: Seq[Double] = Nil
}
