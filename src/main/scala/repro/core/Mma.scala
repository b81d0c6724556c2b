package repro.core

import repro.geo.RoutePlanner
import repro.mm.PointMatcher
import repro.traj.Traj

/** End-to-end MMA map matcher (Algorithm 1): classify every GPS point over
  * its candidate set with the trained [[MmaModel]], then stitch the matched
  * segments into a route with the shared DA-based planner.
  */
final class Mma(val model: MmaModel, val planner: RoutePlanner) extends PointMatcher {
  val name = "MMA"
  def matchPoints(t: Traj): Array[Int] = model.predictSegments(t)
}
