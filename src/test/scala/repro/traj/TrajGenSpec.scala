package repro.traj

import org.scalatest.funsuite.AnyFunSuite
import repro.geo.{RoadNetwork, XY}

class TrajGenSpec extends AnyFunSuite {

  private val net = RoadNetwork.generate(
    RoadNetwork.CityConfig("t", gridW = 10, gridH = 10, spacingM = 180, seed = 21))
  private val cfg = GenConfig(epsilon = 15, avgPoints = 40)
  private lazy val trajs = TrajGen.generateLocal(net, cfg, 80, seed = 1)

  test("deterministic in (seed, id)") {
    val a = TrajGen.simulateOne(net, cfg, 5, 7)
    val b = TrajGen.simulateOne(net, cfg, 5, 7)
    assert(a.dense.toSeq == b.dense.toSeq)
    assert(a.sparse.toSeq == b.sparse.toSeq)
  }

  test("dense timestamps are exact epsilon multiples") {
    trajs.foreach { t =>
      t.dense.zipWithIndex.foreach { case (mp, i) =>
        assert(math.abs(mp.t - i * cfg.epsilon) < 1e-9)
      }
    }
  }

  test("ratios lie in [0, 1)") {
    trajs.foreach(_.dense.foreach(mp => assert(mp.r >= 0 && mp.r < 1)))
  }

  test("route is a connected chain of distinct consecutive segments") {
    trajs.foreach { t =>
      t.route.toSeq.sliding(2).foreach {
        case Seq(a, b) =>
          assert(a != b)
          assert(net.segments(a).to == net.segments(b).from, s"route break $a->$b")
        case _ => ()
      }
    }
  }

  test("dense segments follow the route order") {
    trajs.foreach { t =>
      var pos = 0
      t.dense.foreach { mp =>
        val p = t.route.indexOf(mp.seg, pos)
        assert(p >= 0, s"dense segment ${mp.seg} not on route at/after $pos")
        pos = p
      }
    }
  }

  test("sparse endpoints are dense endpoints") {
    trajs.foreach { t =>
      assert(t.sparseIdxInDense.head == 0)
      assert(t.sparseIdxInDense.last == t.dense.length - 1)
      assert(t.sparse.length == t.sparseIdxInDense.length)
    }
  }

  test("sparse truth segments agree with dense") {
    trajs.foreach { t =>
      t.sparseIdxInDense.zipWithIndex.foreach { case (di, si) =>
        assert(t.sparseTruthSeg(si) == t.dense(di).seg)
      }
    }
  }

  test("average sparse interval is close to epsilon/gamma") {
    val intervals = trajs.flatMap(t => t.sparse.toSeq.sliding(2).collect { case Seq(a, b) => b.t - a.t })
    val mean = intervals.sum / intervals.size
    val target = cfg.epsilon / cfg.gamma
    assert(mean > target * 0.5 && mean < target * 1.5, s"mean interval $mean vs target $target")
  }

  test("GPS noise magnitude matches sigma") {
    val errs = trajs.flatMap { t =>
      t.dense.indices.map { i =>
        val truthPos = net.pointAt(t.dense(i).seg, t.dense(i).r)
        // Reconstruct the observed point for this dense index only at sparse slots.
        truthPos
      }
      t.sparseIdxInDense.zipWithIndex.map { case (di, si) =>
        val truth = net.pointAt(t.dense(di).seg, t.dense(di).r)
        XY(t.sparse(si).x, t.sparse(si).y).dist(truth)
      }
    }
    val mean = errs.sum / errs.size
    // Mean of a 2-D Gaussian radius is sigma * sqrt(pi/2) ~= 1.2533 sigma;
    // the heavy-tail outlier mixture raises it to ~1.5 sigma.
    assert(mean > cfg.noiseSigmaM * 0.9 && mean < cfg.noiseSigmaM * 2.0, s"mean GPS error $mean")
  }

  test("Fig. 2 premise: truth segment within top-10 candidates with ratio near 1") {
    val hits10 = trajs.flatMap { t =>
      t.sparse.indices.map { i =>
        val cands = net.nearestSegments(XY(t.sparse(i).x, t.sparse(i).y), 10)
        cands.contains(t.sparseTruthSeg(i))
      }
    }
    val ratio10 = hits10.count(identity).toDouble / hits10.size
    assert(ratio10 > 0.95, s"top-10 hit ratio $ratio10")
    val hits1 = trajs.flatMap { t =>
      t.sparse.indices.map { i =>
        net.nearestSegments(XY(t.sparse(i).x, t.sparse(i).y), 1).head == t.sparseTruthSeg(i)
      }
    }
    val ratio1 = hits1.count(identity).toDouble / hits1.size
    assert(ratio1 < 0.97, s"top-1 hit ratio $ratio1 should be clearly below the top-10 ratio")
    assert(ratio1 > 0.4, s"top-1 hit ratio $ratio1 unreasonably low")
  }

  test("trajectory length distribution near avgPoints") {
    val mean = trajs.map(_.dense.length).sum.toDouble / trajs.size
    assert(mean > cfg.avgPoints * 0.7 && mean < cfg.avgPoints * 1.3, s"mean dense length $mean")
  }

  test("gapCount matches true gaps") {
    trajs.foreach { t =>
      t.sparseIdxInDense.toSeq.sliding(2).zip(t.sparse.toSeq.sliding(2)).foreach {
        case (Seq(i1, i2), Seq(p1, p2)) =>
          assert(repro.recovery.Recoverer.gapCount(p1.t, p2.t, cfg.epsilon) == i2 - i1 - 1)
        case _ => ()
      }
    }
  }
}
