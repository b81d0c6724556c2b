package repro.mm

import repro.geo.RoutePlanner
import repro.traj.{MatchedRoute, Traj}

/** A map-matching method: maps the sparse GPS points of a trajectory onto
  * road segments and returns the stitched route (paper Definition 4).
  * Implementations are Serializable so they can be broadcast to executors
  * and applied per partition (see eval.SparkInfer).
  */
trait MapMatcher extends Serializable {
  def name: String

  /** Per-point matched segments plus the stitched route. */
  def matchTraj(t: Traj): MatchedRoute
}

/** A matcher that labels every sparse point with a segment and then stitches
  * those segments into a route with the shared DA planner (Algorithm 1,
  * line 10): MMA and every point-level baseline.
  */
trait PointMatcher extends MapMatcher {
  protected def planner: RoutePlanner

  /** The matched segment of every sparse point of `t`. */
  def matchPoints(t: Traj): Array[Int]

  /** The route passes the per-point segments in order without consecutive
    * repeats, connected in `nextSegments` on a strongly connected network.
    */
  final def matchTraj(t: Traj): MatchedRoute = {
    val per = matchPoints(t)
    MatchedRoute(t.id, per, planner.stitch(per.toIndexedSeq).toArray)
  }
}
