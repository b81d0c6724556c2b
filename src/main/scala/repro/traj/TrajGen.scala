package repro.traj

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.geo.{Geo, RoadNetwork, ShortestPath, XY}
import scala.collection.mutable
import scala.util.Random

/** Trajectory simulator parameters. `epsilon` is the target high sampling
  * rate (seconds); sparse trajectories keep each interior dense point with
  * probability `gamma` (paper Section VI-A: random sampling giving average
  * interval epsilon/gamma).
  */
final case class GenConfig(
    epsilon: Double,
    avgPoints: Int = 40,
    speedMinMs: Double = 7.0,
    speedMaxMs: Double = 13.0,
) extends Serializable {
  def gamma: Double = 0.1
  def noiseSigmaM: Double = 5.0
  // Heavy-tailed GPS error (multipath): with this probability a point's
  // noise sigma is multiplied by outlierScale. Matches the paper's cited
  // GPS error profile (7 m at 95%, 30 m at 99% confidence).
  def outlierProb: Double = 0.07
  def outlierScale: Double = 4.0
}

/** Simulates vehicles on a road network to produce ground-truth epsilon-
  * sampling trajectories plus their sparse, noisy observations.
  *
  * Replaces the paper's real GPS corpora (see DESIGN.md §3): vehicles follow
  * momentum-biased walks over the directed segment graph (favouring straight
  * continuations, penalising revisits), move at a per-trajectory speed with
  * per-step jitter, are sampled every `epsilon` seconds to yield the dense
  * ground truth, and observed with Gaussian GPS noise.
  */
object TrajGen {

  /** Deterministically simulate one trajectory for (seed, id). Rare starts
    * in awkward corners can produce too-short trajectories; those retry with
    * the same (still deterministic) RNG stream.
    */
  def simulateOne(net: RoadNetwork, cfg: GenConfig, seed: Long, id: Long): Traj = {
    val rnd = new Random(seed * 1000003L + id * 7919L)
    var attempt = 0
    while (attempt < 20) {
      attempt += 1
      simulateAttempt(net, cfg, rnd, id) match {
        case Some(t) => return t
        case None    => ()
      }
    }
    throw new IllegalStateException(s"could not simulate trajectory $id after 20 attempts")
  }

  private def simulateAttempt(net: RoadNetwork, cfg: GenConfig, rnd: Random, id: Long): Option[Traj] = {
    // Target number of dense points.
    val nDense = math.max(8,
      math.min((cfg.avgPoints * 1.6).toInt, (cfg.avgPoints + rnd.nextGaussian() * cfg.avgPoints / 4).toInt))
    val speed = cfg.speedMinMs + rnd.nextDouble() * (cfg.speedMaxMs - cfg.speedMinMs)
    val neededLen = speed * cfg.epsilon * nDense * 1.25 + 50

    // Route: real drivers follow near-shortest paths between origin and
    // destination, occasionally detouring via a waypoint. Extend with new
    // destinations until the route covers the needed travel distance.
    val walk = mutable.ArrayBuffer.empty[Int]
    var len = 0.0
    var curNode = rnd.nextInt(net.numNodes)
    var guard = 0
    while (len < neededLen && guard < 40) {
      guard += 1
      // Pick a destination roughly in the remaining-distance range (roads
      // detour, so aim for ~70% of the leftover length as the crow flies).
      val want = math.max(300.0, (neededLen - len) * 0.7)
      var dst = rnd.nextInt(net.numNodes)
      var tries = 0
      while (tries < 30 && {
        val d = net.nodes(curNode).dist(net.nodes(dst))
        d < want * 0.5 || d > want * 1.3 || dst == curNode
      }) { dst = rnd.nextInt(net.numNodes); tries += 1 }
      // A good fraction of legs detours via a waypoint: real routes are not
      // shortest paths (driver preference, traffic avoidance), which is what
      // degrades distance-based HMM transitions on sparse data (paper I).
      val legs: List[(Int, Int)] =
        if (rnd.nextDouble() < 0.4) {
          val w = rnd.nextInt(net.numNodes)
          List((curNode, w), (w, dst))
        } else List((curNode, dst))
      val legSegs = legs.flatMap { case (a, b) =>
        ShortestPath.nodePathSegments(net, a, b).getOrElse(Nil)
      }
      // Eliminate u-turn pairs (s, reverse(s)) a waypoint detour introduces;
      // removal keeps the chain connected (both ends sit at s.from).
      val cleaned = mutable.ArrayBuffer.empty[Int]
      legSegs.foreach { sid =>
        if (cleaned.nonEmpty && net.segments(cleaned.last).from == net.segments(sid).to &&
            net.segments(cleaned.last).to == net.segments(sid).from)
          cleaned.remove(cleaned.length - 1)
        else cleaned += sid
      }
      cleaned.foreach { sid =>
        if (walk.isEmpty || net.segments(sid).from == net.segments(walk.last).to) {
          walk += sid
          len += net.segments(sid).lengthM
        }
      }
      curNode = if (walk.nonEmpty) net.segments(walk.last).to else curNode
    }
    if (walk.isEmpty) return None

    // Advance along the walk at `speed` (with per-step jitter), sampling a
    // map-matched point every epsilon seconds.
    val dense = mutable.ArrayBuffer.empty[MatchedPoint]
    var segIdx = 0
    var offset = rnd.nextDouble() * 0.5 * net.segments(walk(0)).lengthM
    var t = 0.0
    var exhausted = false
    var lastSampleSegIdx = 0
    while (dense.length < nDense && !exhausted) {
      val seg = net.segments(walk(segIdx))
      dense += MatchedPoint(seg.id, math.min(0.999999, offset / seg.lengthM), t)
      lastSampleSegIdx = segIdx
      t += cfg.epsilon
      // Advance epsilon seconds of travel time; the instantaneous speed is
      // the trajectory's base speed times the current segment's road-class
      // factor times a small per-step jitter.
      var timeLeft = cfg.epsilon
      val jitter = 0.9 + 0.2 * rnd.nextDouble()
      while (timeLeft > 1e-9 && !exhausted) {
        val cur = net.segments(walk(segIdx))
        val v = math.max(0.5, speed * cur.speedFactor * jitter)
        val tToEnd = (cur.lengthM - offset) / v
        if (tToEnd > timeLeft) { offset += v * timeLeft; timeLeft = 0.0 }
        else if (segIdx + 1 < walk.length) { segIdx += 1; offset = 0.0; timeLeft -= tToEnd }
        else exhausted = true
      }
    }
    if (dense.length < 4) return None

    // Observed noisy GPS point for every dense point.
    val gps = dense.map { mp =>
      val p = net.pointAt(mp.seg, mp.r)
      val sigma =
        if (rnd.nextDouble() < cfg.outlierProb) cfg.noiseSigmaM * cfg.outlierScale
        else cfg.noiseSigmaM
      GpsPoint(p.x + rnd.nextGaussian() * sigma,
               p.y + rnd.nextGaussian() * sigma, mp.t)
    }

    // Random sparsification: keep first and last, interior kept w.p. gamma.
    val keep = mutable.ArrayBuffer[Int](0)
    var i = 1
    while (i < dense.length - 1) {
      if (rnd.nextDouble() < cfg.gamma) keep += i
      i += 1
    }
    keep += dense.length - 1

    val sparse = keep.map(gps(_)).toArray
    val truthSeg = keep.map(dense(_).seg).toArray
    // Ground-truth route: every segment the vehicle traversed between the
    // first and last dense sample (NOT just the sampled ones — a vehicle can
    // cross a whole short segment between two epsilon samples).
    val route = walk.slice(0, lastSampleSegIdx + 1)

    Some(Traj(id, sparse, truthSeg, keep.toArray, route.toArray, dense.toArray))
  }

  /** Local generation (driver only) — used by unit tests and training. */
  def generateLocal(net: RoadNetwork, cfg: GenConfig, n: Int, seed: Long): IndexedSeq[Traj] =
    (0 until n).map(i => simulateOne(net, cfg, seed, i.toLong))

  /** Distributed generation: the road network is broadcast once and each
    * partition simulates its id range deterministically.
    */
  def generate(spark: SparkSession, net: RoadNetwork, cfg: GenConfig, n: Long, seed: Long): Dataset[Traj] = {
    import spark.implicits._
    val bcNet = spark.sparkContext.broadcast(net)
    spark.range(n).mapPartitions { ids =>
      val localNet = bcNet.value
      ids.map(id => simulateOne(localNet, cfg, seed, id))
    }
  }
}
