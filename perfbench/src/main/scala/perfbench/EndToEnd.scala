package perfbench

import repro.eval.Metrics
import repro.geo.ShortestPath
import repro.traj.{MatchedRoute, Recovered, Traj}
import scala.collection.mutable.ArrayBuffer

/** A method under test in a closed loop with one client: the next
  * trajectory starts when the previous one returns.
  */
final class Loop(val name: String, val run: Traj => AnyRef) {
  /** Latency of each timed trajectory in ns. */
  var ns: Array[Long] = Array.empty
  /** The same latencies in reference-ns (see [[SpeedControl]]). */
  var refNs: Array[Double] = Array.empty
  /** Output for each timed trajectory (null when the call threw). */
  var outs: Array[AnyRef] = Array.empty
}

/** The untraced run: every end-to-end metric of one workload. */
object EndToEnd {

  /** Set-ups per run; the median time is reported. */
  val SetupReps = 3
  /** Warm-up per method before anything is timed. */
  val WarmSecondsPerMethod = 0.35
  /** Reference samples within this distance of a timed call scale its
    * duration.
    */
  val StepMarginNs = 250_000_000L

  def run(wl: Workload, seed: Long, seconds: Double, out: String => Unit): (Tally, Boolean, Seq[(String, Metric)]) = {
    val tally = new Tally
    val ctl = new SpeedControl
    ctl.warm()

    // ---- set-up, repeated; the last world is the one measured ----
    val setupS = ArrayBuffer.empty[Double]
    val paramDigests = ArrayBuffer.empty[String]
    var world: World = null
    (1 to SetupReps).foreach { _ =>
      world = null
      if (!World.dropCachedCities()) out("warning: city cache not cleared; later set-ups reuse the network")
      val t0 = System.nanoTime()
      world = World.build(wl, seed, wl.nTimed(seconds))
      setupS += (System.nanoTime() - t0) / 1e9
      paramDigests += world.paramDigest
    }
    val w = world
    out("setup parts (s) " + w.setupParts.map { case (k, v) => f"$k=$v%.3f" }.mkString(" "))
    out("setup " + setupS.map(s => f"$s%.3f").mkString(" ") + " s; trained parameters " +
      paramDigests.distinct.mkString(" / "))
    val deterministic = paramDigests.distinct.length == 1
    if (!deterministic) out("FAIL: repeated set-ups trained different parameters")
    val heapMb = retainedHeapMb()

    val mma = new Loop("mma", w.mma.matchTraj)
    val trmma = new Loop("trmma", w.trmma.recover)
    val fmm = new Loop("fmm", w.fmm.matchTraj)
    val mtrajrec = new Loop("mtrajrec", w.mtrajrec.recover)
    val loops = Seq(mma, trmma, fmm, mtrajrec)
    warmUp(w, loops, tally)
    timeInference(w, loops, tally, ctl)
    val (mmaTrain, trmmaTrain) = Training.time(w, ctl, tally, wl.trainSamples(seconds), out)

    // ---- quality and digests of the timed outputs ----
    val timedById = w.timed.map(t => t.id -> t).toMap
    def routeF1(l: Loop) = 100 * Stats.mean(l.outs.toSeq.collect {
      case m: MatchedRoute => Metrics.mapMatch(timedById(m.id), m.route).f1
    })
    def accuracy(l: Loop) = {
      val cache = new ShortestPath.DistCache(w.net)
      100 * Stats.mean(l.outs.toSeq.collect {
        case r: Recovered => Metrics.recovery(w.net, timedById(r.id), r.points, cache).accuracy
      })
    }
    val mmaF1 = routeF1(mma)
    val trmmaAcc = accuracy(trmma)
    out(f"quality: MMA route F1 $mmaF1%.2f, FMM route F1 ${routeF1(fmm)}%.2f, " +
      f"TRMMA accuracy $trmmaAcc%.2f, MTrajRec accuracy ${accuracy(mtrajrec)}%.2f")
    out("digest " + loops.map { l =>
      val d = new Digest
      l.outs.foreach(o => if (o != null) d.output(o))
      s"${l.name}=${d.hex}"
    }.mkString(" "))
    out(f"reference kernel median ${ctl.medianNs / 1e3}%.1f us (nominal ${SpeedControl.NominalNs / 1e3}%.1f us)")
    loops.foreach { l =>
      out(f"${l.name} ${l.ns.length * 1e9 / l.ns.sum}%.1f traj/s, " +
        f"${l.refNs.length * 1e9 / l.refNs.sum}%.1f per reference-second")
    }

    def tput(l: Loop) = Metric(1e9 / Stats.mean(l.refNs.toSeq), "traj/s")
    def pct(l: Loop, q: Double) = Metric(Stats.quantile(l.refNs, q) / 1e6, "ms")
    val metrics = Seq(
      "setup_s" -> Metric(Stats.median(setupS.toSeq), "s"),
      "mma_traj_per_s" -> tput(mma),
      "mma_p50_ms" -> pct(mma, 0.5),
      "mma_p95_ms" -> pct(mma, 0.95),
      "trmma_traj_per_s" -> tput(trmma),
      "trmma_p50_ms" -> pct(trmma, 0.5),
      "trmma_p95_ms" -> pct(trmma, 0.95),
      "fmm_traj_per_s" -> tput(fmm),
      "mtrajrec_traj_per_s" -> tput(mtrajrec),
      "mma_train_samples_per_s" -> Metric(mmaTrain, "samples/s"),
      "trmma_train_samples_per_s" -> Metric(trmmaTrain, "samples/s"),
      "mma_route_f1" -> Metric(mmaF1, "%"),
      "trmma_accuracy" -> Metric(trmmaAcc, "%"),
      "retained_heap_mb" -> Metric(heapMb, "MB"),
    )
    (tally, deterministic, metrics)
  }

  /** Heap in use after a full collection, in MB. */
  def retainedHeapMb(): Double = {
    val mem = java.lang.management.ManagementFactory.getMemoryMXBean
    (1 to 3).foreach(_ => System.gc())
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** Run one method on one trajectory; a thrown exception is the result. */
  def call(l: Loop, t: Traj): Either[Exception, AnyRef] =
    try Right(l.run(t)) catch { case e: Exception => Left(e) }

  /** Count `result` as an operation, failed when it is an exception or
    * breaks an output invariant. Returns the output, or null.
    */
  def check(w: World, name: String, t: Traj, result: Either[Exception, AnyRef], tally: Tally): AnyRef =
    result match {
      case Left(e) => tally.fail(s"$name traj ${t.id}: $e"); null
      case Right(o) =>
        Checks(w.net, t, o).fold(tally.ok())(why => tally.fail(s"$name traj ${t.id}: $why"))
        o
    }

  /** Run every method on the warm-up trajectories (never on the timed ones)
    * until the JIT has compiled its paths.
    */
  def warmUp(w: World, loops: Seq[Loop], tally: Tally): Unit =
    loops.foreach { l =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < w.warm.length || System.nanoTime() - t0 < WarmSecondsPerMethod * 1e9) {
        val t = w.warm(i % w.warm.length)
        check(w, l.name, t, call(l, t), tally)
        i += 1
      }
    }

  /** One pass over the timed trajectories that runs every method on a
    * trajectory before moving to the next, in an order that rotates, so
    * interference from other processes hits all methods alike. A reference
    * sample precedes every call.
    */
  def timeInference(w: World, loops: Seq[Loop], tally: Tally, ctl: SpeedControl): Unit = {
    val n = w.timed.length
    val at = loops.map(_ => new Array[Long](n))
    loops.foreach { l => l.ns = new Array[Long](n); l.outs = new Array[AnyRef](n) }
    var i = 0
    while (i < n) {
      val t = w.timed(i)
      var k = 0
      while (k < loops.length) {
        val li = (i + k) % loops.length
        val l = loops(li)
        ctl.sample()
        val t0 = System.nanoTime()
        val result = call(l, t)
        l.ns(i) = System.nanoTime() - t0
        at(li)(i) = t0
        l.outs(i) = check(w, l.name, t, result, tally)
        k += 1
      }
      i += 1
    }
    ctl.sample()
    loops.indices.foreach { li =>
      val l = loops(li)
      l.refNs = l.ns.indices.map(i => l.ns(i) * ctl.factor(at(li)(i), at(li)(i), StepMarginNs)).toArray
    }
  }
}
