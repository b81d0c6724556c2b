package repro.traj

/** An observed GPS point in city-local planar metres with timestamp seconds.
  * (The synthetic cities are generated in this frame; all models and metrics
  * work in it.)
  */
final case class GpsPoint(x: Double, y: Double, t: Double) extends Serializable

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
) extends Serializable

/** A recovered epsilon-sampling trajectory (method output) next to its id. */
final case class Recovered(id: Long, points: Array[MatchedPoint]) extends Serializable

/** A map-matching output: the route plus per-point matched segments. */
final case class MatchedRoute(id: Long, perPoint: Array[Int], route: Array[Int]) extends Serializable {
  /** The route, or the distinct per-point segments when it is empty: what
    * the route-based recoverers (TRMMA, Linear) work along.
    */
  def routeOrFallback: Array[Int] = if (route.nonEmpty) route else perPoint.distinct
}
