package repro.mm

import repro.geo.{RoadNetwork, ShortestPath, XY}
import repro.traj.Traj

/** The candidate lattice of `t`: each sparse point's first `k` candidate
  * segments in (distance, id) order, and the directed network distance from
  * each candidate of point i to each of point i + 1 (the HMM transition
  * distance), from one `ShortestPath.dijkstraTo` per distinct exit node to
  * the next point's entrances, bounded by `bound`.
  */
final class Lattice(net: RoadNetwork, t: Traj, k: Int, bound: Double) {
  val pts: Array[XY] = t.sparse.map(_.xy)
  private val found = pts.map(net.candidates(_, k))
  val ids: Array[Array[Int]] = found.map(_.ids)
  val dists: Array[Array[Double]] = found.map(_.dists)
  val ratios: Array[Array[Double]] = Array.tabulate(pts.length)(i => ids(i).map(net.projectRatio(pts(i), _)))
  // nodeDist(i)(a)(b): from the exit node of ids(i)(a) to the entrance node of ids(i + 1)(b).
  private val nodeDist = Array.tabulate(pts.length - 1) { i =>
    val entrances = ids(i + 1).map(net.segments(_).from)
    val exits = ids(i).map(net.segments(_).to)
    val fromExit = exits.distinct.map(node => node -> ShortestPath.dijkstraTo(net, node, bound, entrances)).toMap
    exits.map(fromExit)
  }

  /** Directed distance from candidate `a` of point i to candidate `b` of point i + 1. */
  def travel(i: Int, a: Int, b: Int): Double =
    ShortestPath.directedDist(net, ids(i)(a), ratios(i)(a), ids(i + 1)(b), ratios(i + 1)(b), nodeDist(i)(a)(b))
}
