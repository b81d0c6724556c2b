package repro.mm

import repro.geo.RoutePlanner
import repro.recovery.Recoverer
import repro.traj.{MatchedRoute, Recovered, Traj}
import scala.collection.mutable

/** RNTrajRec "modified to only return routes" (paper Table V): the route of
  * a trained RNTrajRec recovery, its recovered segment sequence
  * consecutive-deduped and planner-stitched to connectivity. The per-point
  * segments are the recovered segments at the observed slots.
  */
final class RnTrajRecMm(planner: RoutePlanner, epsilon: Double) extends Serializable {
  /** The route of `rec`, RNTrajRec's recovery of `t`. */
  def route(t: Traj, rec: Recovered): MatchedRoute = {
    val tl = Recoverer.slotTimeline(t, epsilon)
    val per = (0 until tl.length).filter(tl.observed).map(rec.points(_).seg).toArray
    val dedup = mutable.ListBuffer.empty[Int]
    rec.points.foreach(p => if (dedup.isEmpty || dedup.last != p.seg) dedup += p.seg)
    MatchedRoute(t.id, per, planner.stitch(dedup.toList).toArray)
  }
}
