package repro.mm

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.core.{Mma, MmaConfig, MmaModel}
import repro.eval.Metrics
import repro.geo.Geo
import repro.recovery.RouteArc
import repro.traj.Traj

/** Classical and learned map matchers on the shared small world. */
class MatcherSpec extends AnyFunSuite {
  import TestWorld._

  private def routeF1(m: MapMatcher, ts: Seq[Traj]): Double = {
    val rows = ts.map(t => Metrics.mapMatch(t, m.matchTraj(t).route))
    rows.map(_.f1).sum / rows.size
  }

  private def pointAcc(f: Traj => Array[Int], ts: Seq[Traj]): Double = {
    var hit = 0; var tot = 0
    ts.foreach { t =>
      val pred = f(t)
      pred.indices.foreach { i => if (pred(i) == t.sparseTruthSeg(i)) hit += 1; tot += 1 }
    }
    hit.toDouble / tot
  }

  private lazy val nearest = new Nearest(net, planner)
  private lazy val fmm = new HmmMatcher(net, planner)
  private lazy val lhmm = Lhmm.train(net, planner, trainSet)

  test("nearest picks the geometrically closest segment") {
    val t = testSet.head
    val per = nearest.matchPoints(t)
    per.indices.foreach { i =>
      val p = t.sparse(i).xy
      val s = net.segments(per(i))
      val dAny = net.candidates(p, 1).dists.head
      assert(math.abs(Geo.pointSegDist(p, s.a, s.b) - dAny) < 1e-9)
    }
  }

  test("every point matcher's route is non-empty, connected, repeat-free and passes its per-point segments in order") {
    val matchers: Seq[PointMatcher] = Seq(nearest, fmm, lhmm,
      new Mma(MmaModel.init(net, MmaConfig(), node2vec), planner),
      new DeepMm(DeepMmModel.init(net), planner),
      new GraphMm(GraphMmModel.init(net, node2vec), planner))
    for (m <- matchers; t <- testSet) {
      val mr = m.matchTraj(t)
      val r = mr.route
      assert(r.nonEmpty, s"${m.name} traj ${t.id}: empty route")
      (1 until r.length).foreach { k =>
        assert(r(k) != r(k - 1), s"${m.name} traj ${t.id}: ${r(k)} repeats at $k")
        assert(net.nextSegments(r(k - 1)).contains(r(k)), s"${m.name} traj ${t.id}: break at $k")
      }
      var pos = 0
      mr.perPoint.foreach { s =>
        pos = RouteArc.posOf(r, s, pos)
        assert(pos >= 0, s"${m.name} traj ${t.id}: per-point segment $s out of order")
      }
    }
  }

  test("HMM beats Nearest on point accuracy (direction disambiguation)") {
    val accH = pointAcc(fmm.matchPoints, testSet)
    val accN = pointAcc(nearest.matchPoints, testSet)
    info(f"FMM $accH%.3f vs Nearest $accN%.3f")
    assert(accH > accN + 0.05)
  }

  test("LHMM beats plain FMM on route F1 (learned emission)") {
    val fL = routeF1(lhmm, testSet)
    val fH = routeF1(fmm, testSet)
    info(f"LHMM $fL%.3f vs FMM $fH%.3f")
    assert(fL >= fH - 0.01)
  }

  test("LHMM with zero weights matches like FMM") {
    // A zero logistic term adds nothing to FMM's emission, so the two
    // differ only if they read different k, sigma or beta.
    val zero = new Lhmm(net, planner, weights = new Array[Double](6))
    testSet.foreach { t =>
      val (a, b) = (zero.matchTraj(t), fmm.matchTraj(t))
      assert(a.perPoint.sameElements(b.perPoint) && a.route.sameElements(b.route), s"trajectory ${t.id}")
    }
  }

  test("LHMM learned weights favour proximity and forward direction") {
    // Feature 0 is the proximity decay, features 1-4 directional cosines of
    // the true direction of travel; all should get positive weight.
    assert(lhmm.weights(0) > 0, s"${lhmm.weights.toSeq}")
  }

  test("matchers return one segment per sparse point and a route covering them") {
    Seq[MapMatcher](nearest, fmm, lhmm).foreach { m =>
      testSet.take(5).foreach { t =>
        val mr = m.matchTraj(t)
        assert(mr.perPoint.length == t.sparse.length, m.name)
        assert(mr.route.nonEmpty, m.name)
        mr.perPoint.foreach(s => assert(mr.route.contains(s), m.name))
      }
    }
  }

  test("routes are connected chains") {
    Seq[MapMatcher](nearest, fmm, lhmm).foreach { m =>
      testSet.take(5).foreach { t =>
        m.matchTraj(t).route.toSeq.sliding(2).foreach {
          case Seq(a, b) => assert(net.segments(a).to == net.segments(b).from, s"${m.name}: $a->$b")
          case _         => ()
        }
      }
    }
  }

  test("RNTrajRec's route takes the recovered segments at the observed slots") {
    val m = repro.recovery.SeqRecModel.init(net, repro.recovery.SeqRecConfig("rntrajrec"), cfg.epsilon, node2vec)
    val rn = new RnTrajRecMm(planner, cfg.epsilon)
    testSet.take(10).foreach { t =>
      val rec = m.recover(t)
      val mr = rn.route(t, rec)
      assert(mr.perPoint.toSeq == t.sparseIdxInDense.toSeq.map(rec.points(_).seg))
      rec.points.foreach(p => assert(mr.route.contains(p.seg)))
      mr.route.toSeq.sliding(2).foreach {
        case Seq(a, b) => assert(net.segments(a).to == net.segments(b).from, s"$a->$b")
        case _         => ()
      }
    }
  }

  test("GraphMM trains and predicts candidates near the point") {
    val gm = GraphMmModel.init(net, node2vec)
    val l0 = { implicit val tp: repro.nn.Tape = repro.nn.NoTape; gm.loss(trainSet.head).data(0) }
    GraphMmModel.train(gm, trainSet.take(60), epochs = 2)
    val l1 = { implicit val tp: repro.nn.Tape = repro.nn.NoTape; gm.loss(trainSet.head).data(0) }
    assert(l1 < l0, s"$l0 -> $l1")
    val per = gm.predictSegments(testSet.head)
    assert(per.length == testSet.head.sparse.length)
  }

  test("DeepMM trains and the spatial prior keeps predictions local") {
    val dm = DeepMmModel.init(net)
    DeepMmModel.train(dm, trainSet.take(60), epochs = 2)
    val t = testSet.head
    val per = dm.predictSegments(t)
    per.indices.foreach { i =>
      val s = net.segments(per(i))
      val d = Geo.pointSegDist(t.sparse(i).xy, s.a, s.b)
      assert(d < 2000, s"prediction $d m away")
    }
  }
}
