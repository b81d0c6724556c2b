package repro.traj

import repro.geo.{Geo, RoadNetwork, Segment, XY}

/** An observed GPS point in city-local planar metres with timestamp seconds.
  * (The synthetic cities are generated in this frame; all models and metrics
  * work in it.)
  */
final case class GpsPoint(x: Double, y: Double, t: Double) extends Serializable {
  def xy: XY = XY(x, y)
}

/** A map-matched point: segment id, position ratio in [0,1), timestamp
  * (paper Definition 5).
  */
final case class MatchedPoint(seg: Int, r: Double, t: Double) extends Serializable

/** One simulated trajectory with full ground truth.
  *
  * @param id              stable id (also the RNG stream id)
  * @param sparse          the observed sparse, noisy GPS points (model input)
  * @param sparseTruthSeg  ground-truth segment of each sparse point
  * @param sparseIdxInDense index of each sparse point within `dense`
  * @param route           ground-truth route: consecutive-deduped segments
  *                        traversed between the first and last sparse point
  * @param dense           ground-truth map-matched epsilon-sampling
  *                        trajectory (Definition 6) — the recovery target
  */
final case class Traj(
    id: Long,
    sparse: Array[GpsPoint],
    sparseTruthSeg: Array[Int],
    sparseIdxInDense: Array[Int],
    route: Array[Int],
    dense: Array[MatchedPoint],
) extends Serializable {

  /** The four directional cosines of Section IV-B between segment `s` and
    * sparse point i: `s` against entrance -> p_i, p_i -> exit,
    * p_{i-1} -> p_i and p_i -> p_{i+1} (0 where that neighbour is missing).
    */
  def dirCosines(i: Int, s: Segment): Array[Double] = {
    val p = sparse(i).xy
    val d = s.dir
    def cos(v: XY): Double = Geo.cosine(d, s.dirNorm, v, v.norm)
    val prev = if (i > 0) cos(p - sparse(i - 1).xy) else 0.0
    val next = if (i + 1 < sparse.length) cos(sparse(i + 1).xy - p) else 0.0
    Array(cos(p - s.a), cos(s.b - p), prev, next)
  }
}

/** The frame the learned models read a trajectory's sparse points in: (x, y)
  * normalised to the network frame, and time as a fraction of the span from
  * the first sparse point to the last.
  */
final class SparseFrame(net: RoadNetwork, t: Traj) {
  val tMax: Double = math.max(1e-9, t.sparse.last.t - t.sparse.head.t)
  def timeFrac(tt: Double): Double = (tt - t.sparse.head.t) / tMax
  /** Normalised (x, y, t) of a position at time `tt`. */
  def at(x: Double, y: Double, tt: Double): Array[Double] = Array(net.normX(x), net.normY(y), timeFrac(tt))
  /** Normalised (x, y, t) of sparse point i. */
  def row(i: Int): Array[Double] = { val p = t.sparse(i); at(p.x, p.y, p.t) }
  def rows: Array[Array[Double]] = Array.tabulate(t.sparse.length)(row)
}

/** A recovered epsilon-sampling trajectory (method output) next to its id. */
final case class Recovered(id: Long, points: Array[MatchedPoint]) extends Serializable

/** A map-matching output: the route plus per-point matched segments. */
final case class MatchedRoute(id: Long, perPoint: Array[Int], route: Array[Int]) extends Serializable
