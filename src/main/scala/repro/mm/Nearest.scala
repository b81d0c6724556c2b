package repro.mm

import repro.geo.{RoadNetwork, RoutePlanner}
import repro.traj.Traj

/** Baseline `Nearest`: each GPS point maps to its nearest segment (the
  * k_c = 1 straw man of the paper's Fig. 2 analysis); gaps are stitched by
  * the shared route planner.
  */
final class Nearest(net: RoadNetwork, protected val planner: RoutePlanner) extends PointMatcher {
  val name = "Nearest"

  def matchPoints(t: Traj): Array[Int] =
    t.sparse.map(p => net.nearestSegments(p.xy, 1).head)
}
