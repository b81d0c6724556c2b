package repro.recovery

import org.scalatest.funsuite.AnyFunSuite
import repro.TestWorld
import repro.core.TruthMatcher
import repro.traj.{Recovered, Traj}

/** Baseline recoverers on the shared small world. */
class RecoverySpec extends AnyFunSuite {
  import TestWorld._

  private def checkAligned(out: Recovered, t: Traj): Unit = {
    assert(out.points.length == t.dense.length)
    out.points.zip(t.dense).foreach { case (p, d) => assert(math.abs(p.t - d.t) < 1e-6) }
    out.points.foreach(p => assert(p.r >= 0 && p.r < 1))
  }

  test("RouteArc round-trips arc positions") {
    val t = trainSet.head
    val arc = new RouteArc(net, t.route)
    assert(arc.totalLen > 0)
    val rnd = new scala.util.Random(3)
    (1 to 50).foreach { _ =>
      val pos = rnd.nextInt(t.route.length)
      val r = rnd.nextDouble() * 0.98
      val (p2, r2) = arc.atArc(arc.arcOf(pos, r))
      assert(p2 == pos, s"$pos vs $p2")
      assert(math.abs(r2 - r) < 1e-6)
    }
  }

  test("RouteArc.atArc clamps out-of-range") {
    val arc = new RouteArc(net, trainSet.head.route)
    assert(arc.atArc(-5.0)._1 == 0)
    assert(arc.atArc(arc.totalLen + 100)._1 == arc.route.length - 1)
  }

  test("gapCount arithmetic") {
    assert(Recoverer.gapCount(0, 150, 15) == 9)
    assert(Recoverer.gapCount(0, 15, 15) == 0)
    assert(Recoverer.gapCount(0, 0, 15) == 0)
  }

  test("slot timeline matches the dense timeline on simulator trajectories") {
    (trainSet.take(40) ++ testSet).foreach { t =>
      val tl = Recoverer.slotTimeline(t, cfg.epsilon)
      assert(tl.length == t.dense.length)
      tl.times.zip(t.dense).foreach { case (tt, d) => assert(math.abs(tt - d.t) < 1e-6) }
      assert((0 until tl.length).filter(tl.observed) == t.sparseIdxInDense.toSeq)
      assert(tl.slotOf.toSeq == t.sparseIdxInDense.toSeq)
      (0 until tl.length).foreach(j => assert(tl.anchor(j) == t.sparseIdxInDense.lastIndexWhere(_ <= j)))
    }
  }

  /** Sparse points whose timestamps are not multiples of 15 s. */
  private val irregular = {
    val ts = Seq(0.0, 37.0, 52.4, 100.0, 122.5, 123.0)
    Traj(1L, ts.zipWithIndex.map { case (tt, i) => repro.traj.GpsPoint(10.0 * i * i, 7.0 - 3.3 * i, tt) }.toArray,
      Array.empty, Array.empty, Array.empty, Array.empty)
  }

  /** Simulator trajectories and `irregular`, each with its slot timeline. */
  private def timelines: Seq[(Traj, SlotTimeline)] =
    (testSet.take(20).map(t => t -> Recoverer.slotTimeline(t, cfg.epsilon)) :+
      (irregular -> Recoverer.slotTimeline(irregular, 15.0))).toSeq

  test("slot timeline rounds gaps whose timestamps are not multiples of epsilon") {
    val tl = Recoverer.slotTimeline(irregular, 15.0)
    // 37/15 -> 1 missing slot; 15.4/15 -> none; 47.6/15 -> 2; 22.5/15 = 1.5
    // rounds up -> 1; 0.5/15 -> none.
    val want = Seq(0.0, 15.0, 37.0, 52.4, 67.4, 82.4, 100.0, 115.0, 122.5, 123.0)
    assert(tl.length == want.length)
    tl.times.zip(want).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9, s"${tl.times.toSeq}") }
    assert(tl.anchor.toSeq == Seq(0, 0, 1, 2, 2, 2, 3, 3, 4, 5))
    assert(tl.slotOf.toSeq == Seq(0, 2, 3, 6, 8, 9))
    assert((0 until tl.length).map(tl.observed) ==
      Seq(true, false, true, true, false, false, true, false, true, true))
  }

  test("slot brackets and interpolations equal a scan from the first point") {
    def scan(t: Traj, tt: Double): Int = {
      var i = 0
      while (i + 1 < t.sparse.length && t.sparse(i + 1).t < tt) i += 1
      i
    }
    def bits(p: repro.geo.XY) = (java.lang.Double.doubleToLongBits(p.x), java.lang.Double.doubleToLongBits(p.y))
    timelines.foreach { case (t, tl) =>
      (0 until tl.length).foreach { j =>
        val i = scan(t, tl.times(j))
        assert(tl.before(j) == i, s"traj ${t.id} slot $j")
        val a = t.sparse(i); val b = t.sparse(math.min(i + 1, t.sparse.length - 1))
        val f = if (b.t - a.t < 1e-9) 0.0 else (tl.times(j) - a.t) / (b.t - a.t)
        assert(bits(tl.interpXY(j)) == bits(repro.geo.XY(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)))
        assert(bits(tl.direction(j)) == bits(b.xy - a.xy))
      }
    }
  }

  test("slot timeline rejects a repeated timestamp") {
    val pts = irregular.sparse.clone()
    pts(3) = pts(3).copy(t = pts(2).t)
    intercept[IllegalArgumentException](Recoverer.slotTimeline(irregular.copy(sparse = pts), 15.0))
  }

  test("slot gaps from an observed mask equal the timeline's") {
    timelines.foreach { case (_, tl) =>
      val gaps = new SlotGaps(Array.tabulate(tl.length)(tl.observed))
      assert(gaps.slotOf.toSeq == tl.slotOf.toSeq && gaps.anchor.toSeq == tl.anchor.toSeq)
      (0 until tl.length).foreach { j =>
        val (lo, hi) = (tl.lo(j), tl.hi(j))
        assert(gaps.lo(j) == lo && gaps.hi(j) == hi && gaps.gapFrac(j) == tl.gapFrac(j))
        assert(lo <= j && j <= hi && tl.observed(lo) && tl.observed(hi))
        assert(tl.gapFrac(j) == (if (hi == lo) 0.0 else (j - lo).toDouble / (hi - lo)))
      }
    }
  }

  test("RouteArc.walk equals the TRMMA and Linear route walks it replaced") {
    // TrmmaModel.prepare's walk: stay at the last position found.
    def trmmaWalk(route: Array[Int], segs: Array[Int]): Seq[Int] = {
      var cur = 0
      segs.toSeq.map { seg =>
        val p = RouteArc.posOf(route, seg, cur)
        if (p >= 0) cur = p
        cur
      }
    }
    // LinearInterp's walk: the arc position of each found point.
    def linearArcs(arc: RouteArc, segs: Array[Int], ratios: Array[Double]): Seq[Double] = {
      var pos = 0
      segs.indices.map { i =>
        val p = RouteArc.posOf(arc.route, segs(i), pos)
        if (p >= 0) pos = p
        arc.arcOf(math.max(0, p), ratios(i))
      }
    }
    testSet.foreach { t =>
      val arc = new RouteArc(net, t.route)
      Seq(t.sparseTruthSeg, t.dense.map(_.seg)).foreach(segs =>
        assert(arc.walk(segs).toSeq == trmmaWalk(t.route, segs), s"traj ${t.id}"))
      val ratios = t.sparse.indices.map(i => net.projectRatio(t.sparse(i).xy, t.sparseTruthSeg(i))).toArray
      val pos = arc.walk(t.sparseTruthSeg)
      assert(ratios.indices.map(i => arc.arcOf(pos(i), ratios(i))) == linearArcs(arc, t.sparseTruthSeg, ratios))
      // A segment off the route keeps the previous position.
      val holed = t.dense.map(_.seg).zipWithIndex.map { case (s, j) => if (j % 3 == 1) -1 else s }
      assert(arc.walk(holed).toSeq == trmmaWalk(t.route, holed), s"traj ${t.id}")
    }
  }

  test("Linear on the truth matcher is exact for constant-speed segments") {
    val lin = new LinearInterp(net, new TruthMatcher, cfg.epsilon, "Linear")
    testSet.take(20).foreach { t =>
      val out = lin.recover(t)
      checkAligned(out, t)
      // observed anchors keep their matched segment
      t.sparseIdxInDense.zipWithIndex.foreach { case (di, si) =>
        assert(out.points(di).seg == t.sparseTruthSeg(si))
      }
    }
  }

  test("Linear recovers within-gap segments in route order") {
    val lin = new LinearInterp(net, new TruthMatcher, cfg.epsilon, "Linear")
    testSet.take(10).foreach { t =>
      val out = lin.recover(t)
      var pos = 0
      out.points.foreach { p =>
        val i = t.route.indexOf(p.seg, pos)
        assert(i >= 0)
        pos = i
      }
    }
  }

  test("SeqRec (mtrajrec) trains, loss decreases, output aligned") {
    val m = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), cfg.epsilon, node2vec)
    val losses = SeqRecModel.train(m, trainSet.take(60), epochs = 2)
    assert(losses.head > losses.last, s"$losses")
    testSet.take(5).foreach(t => checkAligned(m.recover(t), t))
  }

  private def bits(out: Recovered): Seq[(Int, Long, Long)] =
    out.points.toSeq.map(p => (p.seg, java.lang.Double.doubleToLongBits(p.r), java.lang.Double.doubleToLongBits(p.t)))

  test("SeqRec (mtrajrec) recover on recycled scratch arrays equals the NoTape loop bit for bit") {
    val m = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), cfg.epsilon, node2vec)
    SeqRecModel.train(m, trainSet.take(60), epochs = 1)
    testSet.foreach { t =>
      assert(bits(m.recover(t)) == bits(ReferenceSeqRec.recover(m, t)), s"traj ${t.id}")
    }
  }

  test("SeqRec mask features equal the per-candidate arrays they replaced, bit for bit") {
    val m = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), cfg.epsilon, node2vec)
    testSet.take(20).foreach { t =>
      val s = m.prepare(t, withLabels = false)
      val want = ReferenceSeqRec.maskFeat(m, t, s)
      s.maskFeat.indices.foreach { j =>
        assert(s.maskFeat(j).map(java.lang.Double.doubleToLongBits)
          .sameElements(want(j).map(java.lang.Double.doubleToLongBits)), s"traj ${t.id} slot $j")
      }
    }
  }

  test("SeqRec pooled variants collapse encoder states to one row") {
    Seq("trajgat", "trajcl", "st2vec").foreach { kind =>
      val m = SeqRecModel.init(net, SeqRecConfig(kind), cfg.epsilon, node2vec)
      implicit val tp: repro.nn.Tape = repro.nn.NoTape
      val s = m.prepare(testSet.head, withLabels = false)
      assert(m.encode(s).rows == 1, kind)
    }
  }

  test("SeqRec per-point variants keep one state per sparse point") {
    Seq("mtrajrec", "rntrajrec", "mmstged").foreach { kind =>
      val m = SeqRecModel.init(net, SeqRecConfig(kind), cfg.epsilon, node2vec)
      implicit val tp: repro.nn.Tape = repro.nn.NoTape
      val s = m.prepare(testSet.head, withLabels = false)
      assert(m.encode(s).rows == testSet.head.sparse.length, kind)
    }
  }

  test("SeqRec masks contain the truth segment for most slots") {
    val m = SeqRecModel.init(net, SeqRecConfig("mtrajrec"), cfg.epsilon, node2vec)
    val hits = trainSet.take(30).map { t =>
      val s = m.prepare(t, withLabels = true)
      s.masks.indices.count(j => s.masks(j).contains(s.targetSeg(j))).toDouble / s.masks.length
    }
    val avg = hits.sum / hits.size
    info(f"mask hit rate $avg%.3f")
    assert(avg > 0.75, f"mask hit rate $avg%.3f")
  }

  test("DHTR trains and snaps output to segments") {
    val m = DhtrModel.init(net, cfg.epsilon)
    val losses = FreeSpaceModel.train(m, trainSet.take(60), epochs = 2)
    assert(losses.head > losses.last, s"$losses")
    testSet.take(5).foreach(t => checkAligned(new FreeSpaceRec(m, "DHTR").recover(t), t))
  }

  test("TERI trains and snaps output to segments") {
    val m = TeriModel.init(net, cfg.epsilon)
    val losses = FreeSpaceModel.train(m, trainSet.take(60), epochs = 2)
    assert(losses.head > losses.last, s"$losses")
    testSet.take(5).foreach(t => checkAligned(new FreeSpaceRec(m, "TERI").recover(t), t))
  }

  test("free-space observed slots snap the GPS point itself") {
    val m = DhtrModel.init(net, cfg.epsilon)
    val out = new FreeSpaceRec(m, "DHTR").recover(testSet.head)
    val t = testSet.head
    t.sparseIdxInDense.zipWithIndex.foreach { case (di, si) =>
      val p = t.sparse(si).xy
      val s = net.segments(out.points(di).seg)
      val dBest = net.candidates(p, 1).dists.head
      assert(math.abs(repro.geo.Geo.pointSegDist(p, s.a, s.b) - dBest) < 1e-9)
    }
  }
}
