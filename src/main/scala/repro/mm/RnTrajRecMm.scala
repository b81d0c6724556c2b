package repro.mm

import repro.geo.RoutePlanner
import repro.recovery.Recoverer
import repro.traj.{MatchedRoute, Recovered, Traj}

/** RNTrajRec "modified to only return routes" (paper Table V): the route of
  * a trained RNTrajRec recovery, its recovered segment sequence
  * planner-stitched to connectivity (stitching collapses consecutive
  * repeats). The per-point segments are the recovered segments at the
  * observed slots.
  */
final class RnTrajRecMm(planner: RoutePlanner, epsilon: Double) extends Serializable {
  /** The route of `rec`, RNTrajRec's recovery of `t`. */
  def route(t: Traj, rec: Recovered): MatchedRoute = {
    val per = Recoverer.slotTimeline(t, epsilon).slotOf.map(rec.points(_).seg)
    MatchedRoute(t.id, per, planner.stitch(rec.points.map(_.seg).toIndexedSeq).toArray)
  }
}
