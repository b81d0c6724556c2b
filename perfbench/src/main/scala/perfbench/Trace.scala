package perfbench

import repro.core.{MmaConfig, MmaModel, MmaSample, TrmmaConfig, TrmmaModel, TrmmaSample}
import repro.eval.Metrics
import repro.geo.{ShortestPath, XY}
import repro.nn.{Adam, GradTape, NoTape, Ops, Tape, Tensor, Trainer}
import repro.recovery.Recoverer
import repro.traj.{MatchedRoute, Recovered, Traj}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Time spent in named spans and counts recorded next to them. Each span is
  * timed around one public call made from the benchmark's own code.
  */
final class Spans {
  private val ns = mutable.LinkedHashMap.empty[String, Long]
  private val calls = mutable.LinkedHashMap.empty[String, Long]
  private val counts = mutable.LinkedHashMap.empty[String, Double]
  private val samples = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]

  def span[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    val r = f
    ns(name) = ns.getOrElse(name, 0L) + (System.nanoTime() - t0)
    calls(name) = calls.getOrElse(name, 0L) + 1
    r
  }
  def count(name: String, n: Double = 1): Unit = counts(name) = counts.getOrElse(name, 0.0) + n
  def sample(name: String, v: Double): Unit = samples.getOrElseUpdate(name, ArrayBuffer.empty) += v

  def totalMs(name: String): Double = ns.getOrElse(name, 0L) / 1e6
  def callsOf(name: String): Long = calls.getOrElse(name, 0L)
  def countOf(name: String): Double = counts.getOrElse(name, 0.0)
  def samplesOf(name: String): Array[Double] = samples.get(name).map(_.toArray).getOrElse(Array(0.0))
}

/** The traced run: per-layer metrics. Each pipeline is reassembled from its
  * public stages with a span around every stage, and its outputs must equal
  * the untraced `Mma.matchTraj` / `Trmma.recover` outputs exactly.
  */
object Trace {

  /** Trajectories the single-threaded training stages are timed on. */
  val TrainSamples = 48

  def run(wl: Workload, seed: Long, seconds: Double, out: String => Unit): (Tally, Boolean, Seq[(String, Metric)]) = {
    val tally = new Tally
    val w = World.build(wl, seed, wl.nTimed(seconds))
    val loops = Seq(
      new Loop("mma", w.mma.matchTraj),
      new Loop("trmma", w.trmma.recover),
      new Loop("fmm", w.fmm.matchTraj),
      new Loop("mtrajrec", w.mtrajrec.recover),
    )
    EndToEnd.warmUp(w, loops, tally)
    // The traced pipelines run the same code; warm their extra calls too.
    w.warm.foreach { t => tracedMma(w, t, new Spans); tracedTrmma(w, t, new Spans) }

    val sp = new Spans
    val ctl = new SpeedControl
    ctl.warm()
    val n = w.timed.length
    // Untraced and traced pipelines back to back on each trajectory, so
    // the difference between them is the tracing overhead.
    val mmaRef = new Array[MatchedRoute](n)
    val trmmaRef = new Array[Recovered](n)
    w.timed.indices.foreach { i =>
      val t = w.timed(i)
      ctl.sample()
      mmaRef(i) = sp.span("untraced.mma")(w.mma.matchTraj(t))
      check(w, t, "mma", mmaRef(i), sp.span("traced.mma")(tracedMma(w, t, sp)), tally)
      trmmaRef(i) = sp.span("untraced.trmma")(w.trmma.recover(t))
      check(w, t, "trmma", trmmaRef(i), sp.span("traced.trmma")(tracedTrmma(w, t, sp)), tally)
      Seq("fmm" -> sp.span("mm.fmm.match")(w.fmm.matchTraj(t)),
        "mtrajrec" -> sp.span("recovery.mtrajrec.recover")(w.mtrajrec.recover(t))).foreach { case (m, o) =>
        Checks(w.net, t, o).fold(tally.ok())(why => tally.fail(s"$m traj ${t.id}: $why"))
      }
    }
    // Metric computation: one DistCache per pass, as the harness does.
    val cache = new ShortestPath.DistCache(w.net)
    w.timed.indices.foreach { i =>
      val t = w.timed(i)
      sp.span("eval.metrics") {
        Metrics.recovery(w.net, t, trmmaRef(i).points, cache)
        Metrics.mapMatch(t, mmaRef(i).route)
      }
      // matchedDist makes two node-distance queries per aligned point on
      // different segments, none on the same segment.
      val m = math.min(trmmaRef(i).points.length, t.dense.length)
      sp.count("eval.dist_queries", 2.0 * (0 until m).count(j => trmmaRef(i).points(j).seg != t.dense(j).seg))
    }

    val train = w.train.take(TrainSamples)
    traceTraining(w, train, sp, tally)
    ctl.sample()
    // Single-threaded times are in reference-milliseconds, like the
    // end-to-end latencies.
    val f = ctl.runFactor
    def refMs(name: String) = f * sp.totalMs(name)
    def perTraj(name: String) = refMs(name) / n
    def perSample(name: String) = refMs(name) / train.length
    def perCall(name: String) = refMs(name) / sp.callsOf(name)
    def overhead(m: String) = 100 * (sp.totalMs(s"traced.$m") - sp.totalMs(s"untraced.$m")) / sp.totalMs(s"untraced.$m")
    out(f"trace: untraced MMA ${perTraj("untraced.mma")}%.3f ms/traj, traced ${perTraj("traced.mma")}%.3f; " +
      f"untraced TRMMA ${perTraj("untraced.trmma")}%.3f, traced ${perTraj("traced.trmma")}%.3f")
    val windows = sp.samplesOf("core.trmma.window")
    val queries = sp.countOf("geo.rtree.queries")
    val metrics = Seq(
      "geo.rtree.topk_us" -> Metric(1e3 * refMs("geo.rtree.topk") / queries, "us"),
      "geo.rtree.truth_in_topk" -> Metric(100 * sp.countOf("geo.rtree.truth_hits") / queries, "%"),
      "core.mma.prepare_ms" -> Metric((refMs("core.mma.prepare") - refMs("geo.rtree.topk")) / n, "ms"),
      "core.mma.forward_ms" -> Metric(perTraj("core.mma.forward"), "ms"),
      "geo.planner.stitch_ms" -> Metric(perTraj("geo.planner.stitch"), "ms"),
      "geo.planner.plans" -> Metric(sp.countOf("geo.planner.plans") / n, "count/traj"),
      "geo.planner.teleports" -> Metric(sp.countOf("geo.planner.teleports"), "count"),
      "core.trmma.prepare_ms" -> Metric(perTraj("core.trmma.prepare"), "ms"),
      "core.trmma.encode_ms" -> Metric(perTraj("core.trmma.encode"), "ms"),
      "core.trmma.decode_ms" -> Metric((refMs("core.trmma.decode") - refMs("core.trmma.encode")) / n, "ms"),
      "core.trmma.slots" -> Metric(sp.countOf("core.trmma.slots") / n, "count/traj"),
      "core.trmma.window_mean" -> Metric(Stats.mean(windows.toSeq), "segments"),
      "core.trmma.window_p95" -> Metric(Stats.quantile(windows, 0.95), "segments"),
      "core.trmma.route_len" -> Metric(sp.countOf("core.trmma.route_len") / n, "segments"),
      "core.trmma.empty_route" -> Metric(sp.countOf("core.trmma.empty_route"), "count"),
      "mm.fmm.match_ms" -> Metric(perTraj("mm.fmm.match"), "ms"),
      "recovery.mtrajrec.recover_ms" -> Metric(perTraj("recovery.mtrajrec.recover"), "ms"),
      "eval.metrics_ms" -> Metric(perTraj("eval.metrics"), "ms"),
      "eval.dist_queries" -> Metric(sp.countOf("eval.dist_queries") / n, "count/traj"),
      "core.mma.train_prepare_ms" -> Metric(perSample("core.mma.train_prepare"), "ms"),
      "core.trmma.train_prepare_ms" -> Metric(perSample("core.trmma.train_prepare"), "ms"),
      "nn.mma.fwd_ms" -> Metric(perSample("nn.mma.fwd"), "ms"),
      "nn.mma.bwd_ms" -> Metric(perSample("nn.mma.bwd"), "ms"),
      "nn.trmma.fwd_ms" -> Metric(perSample("nn.trmma.fwd"), "ms"),
      "nn.trmma.bwd_ms" -> Metric(perSample("nn.trmma.bwd"), "ms"),
      // Multi-threaded, so in seconds like the end-to-end training rates.
      "nn.trainer.step_ms" -> Metric(sp.totalMs("nn.trainer.step") / sp.callsOf("nn.trainer.step"), "ms"),
      "nn.adam.step_ms" -> Metric(perCall("nn.adam.step"), "ms"),
      "trace.mma_overhead_pct" -> Metric(overhead("mma"), "%"),
      "trace.trmma_overhead_pct" -> Metric(overhead("trmma"), "%"),
    )
    (tally, true, metrics)
  }

  private def check(w: World, t: Traj, m: String, ref: AnyRef, traced: AnyRef, tally: Tally): Unit =
    Checks(w.net, t, ref) match {
      case Some(why) => tally.fail(s"$m traj ${t.id}: $why")
      case None if !Checks.sameOutput(ref, traced) =>
        tally.fail(s"$m traj ${t.id}: reassembled pipeline differs from the untraced output")
      case None => tally.ok()
    }

  /** `Mma.matchTraj` from its public stages (Algorithm 1). */
  def tracedMma(w: World, t: Traj, sp: Spans): MatchedRoute = {
    val m = w.mmaModel
    // The R-tree lookups `prepare` makes, repeated here to time them.
    t.sparse.indices.foreach { i =>
      val p = t.sparse(i)
      val top = sp.span("geo.rtree.topk")(w.net.nearestSegments(XY(p.x, p.y), m.cfg.kc))
      sp.count("geo.rtree.queries")
      if (top.contains(t.sparseTruthSeg(i))) sp.count("geo.rtree.truth_hits")
    }
    val s = sp.span("core.mma.prepare")(m.prepare(t, withLabels = false))
    val per = sp.span("core.mma.forward")(classify(m, s))
    val route = sp.span("geo.planner.stitch")(w.planner.stitch(per.toIndexedSeq).toArray)
    sp.count("geo.planner.plans", (1 until per.length).count(i => per(i) != per(i - 1)).toDouble)
    sp.count("geo.planner.teleports",
      (1 until route.length).count(i => !w.net.nextSegments(route(i - 1)).contains(route(i))).toDouble)
    MatchedRoute(t.id, per, route)
  }

  /** The argmax candidate of every point (`MmaModel.predictSegments` after
    * `prepare`).
    */
  private def classify(m: MmaModel, s: MmaSample): Array[Int] = {
    implicit val tp: Tape = NoTape
    val z2 = m.encodePoints(s)
    s.cands.indices.map { i =>
      val logits = m.logitsFor(Ops.sliceRows(z2, i, i + 1), m.candEmbed(s, i))
      var best = 0
      var bv = Double.NegativeInfinity
      var j = 0
      while (j < logits.rows) { if (logits(j, 0) > bv) { bv = logits(j, 0); best = j }; j += 1 }
      s.cands(i)(best)
    }.toArray
  }

  /** `Trmma.recover` from its public stages (Algorithm 2). */
  def tracedTrmma(w: World, t: Traj, sp: Spans): Recovered = {
    val model = w.trmmaModel
    val mr = sp.span("core.trmma.match")(w.mma.matchTraj(t))
    val segs = mr.perPoint
    val route =
      if (mr.route.nonEmpty) mr.route
      else { sp.count("core.trmma.empty_route"); segs.distinct }
    val times = ArrayBuffer.empty[Double]
    val observed = ArrayBuffer.empty[Boolean]
    val slotSeg = ArrayBuffer.empty[Int]
    val slotR = ArrayBuffer.empty[Double]
    t.sparse.indices.foreach { i =>
      val p = t.sparse(i)
      times += p.t; observed += true; slotSeg += segs(i)
      slotR += model.projRatio(XY(p.x, p.y), segs(i))
      if (i + 1 < t.sparse.length) {
        (1 to Recoverer.gapCount(p.t, t.sparse(i + 1).t, w.epsilon)).foreach { g =>
          times += p.t + g * w.epsilon; observed += false; slotSeg += segs(i); slotR += 0.0
        }
      }
    }
    val s: TrmmaSample = sp.span("core.trmma.prepare")(
      model.prepare(t, segs, route, slotSeg.toArray, slotR.toArray, observed.toArray))
    // `decode` encodes internally; encoding once more here times that part.
    sp.span("core.trmma.encode")(model.encode(s)(NoTape))
    val points = sp.span("core.trmma.decode")(model.decode(s, times.toArray))
    sp.count("core.trmma.route_len", route.length.toDouble)
    s.observed.indices.foreach { j =>
      if (!s.observed(j)) {
        sp.count("core.trmma.slots")
        sp.sample("core.trmma.window", (math.max(s.slotLo(j), s.slotHi(j)) - s.slotLo(j) + 1).toDouble)
      }
    }
    Recovered(t.id, points)
  }

  /** Training stages, single-threaded except for `Trainer.step`. Fresh
    * models, so the trained ones under test are left as they are.
    */
  private def traceTraining(w: World, train: IndexedSeq[Traj], sp: Spans, tally: Tally): Unit = {
    val mma = MmaModel.init(w.net, MmaConfig(), w.n2v)
    val trmma = TrmmaModel.init(w.net, TrmmaConfig(), w.n2v)
    val mmaS = train.map(t => sp.span("core.mma.train_prepare")(mma.prepare(t, withLabels = true)))
    val trmmaS = train.map(t => sp.span("core.trmma.train_prepare")(trmma.prepareTrain(t)))
    def fwdBwd(model: String, lossOf: Tape => Tensor): Unit = {
      val tp = new GradTape
      val l = sp.span(s"nn.$model.fwd")(lossOf(tp))
      sp.span(s"nn.$model.bwd")(tp.backward(l))
      if (java.lang.Double.isFinite(l.data(0))) tally.ok() else tally.fail(s"$model loss ${l.data(0)}")
    }
    mmaS.foreach(s => fwdBwd("mma", tp => mma.loss(s)(tp)))
    trmmaS.foreach(s => fwdBwd("trmma", tp => trmma.loss(s)(tp)))

    val mmaOpt = new Adam(mma.params)
    mmaS.grouped(32).foreach { b =>
      val l = sp.span("nn.trainer.step")(Trainer.step[MmaSample](b, mma.params, mmaOpt, (s, tp) => mma.loss(s)(tp)))
      if (java.lang.Double.isFinite(l)) tally.ok() else tally.fail(s"MMA trainer step loss $l")
    }
    val trmmaOpt = new Adam(trmma.params, lr = 2e-3, clipNorm = 50.0)
    trmmaS.grouped(16).foreach { b =>
      val l = sp.span("nn.trainer.step")(Trainer.step[TrmmaSample](b, trmma.params, trmmaOpt, (s, tp) => trmma.loss(s)(tp)))
      if (java.lang.Double.isFinite(l)) tally.ok() else tally.fail(s"TRMMA trainer step loss $l")
    }

    // Adam alone, over copies of both models' parameters with fixed gradients.
    val params = (mma.params ++ trmma.params).map(_.copyTensor())
    val rnd = new scala.util.Random(5L)
    val grads = params.map(p => Array.fill(p.size)(rnd.nextGaussian() * 1e-3))
    val opt = new Adam(params)
    (1 to 20).foreach(_ => sp.span("nn.adam.step")(opt.step(grads)))
  }
}
