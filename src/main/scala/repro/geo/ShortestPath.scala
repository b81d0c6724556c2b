package repro.geo

import java.util.PriorityQueue
import scala.collection.mutable

/** Shortest-path queries over a [[RoadNetwork]]: node-level Dijkstra,
  * point-to-point A*, segment-graph routes for the planner, and the
  * road-network distance between two map-matched points used by the HMM
  * transitions and the MAE/RMSE recovery metrics. All of them run the one
  * best-first search `search`, on the node graph (arcs are segments) or on
  * the segment graph (arcs are successor segments).
  */
object ShortestPath {

  private final val Inf = Double.PositiveInfinity

  /** Per-vertex state of one search. */
  private final class Search(n: Int) {
    val dist: Array[Double] = Array.fill(n)(Inf)
    val predVertex = new Array[Int](n)
    val predArc = new Array[Int](n)
    val closed = new Array[Boolean](n)

    /** Arcs of the found path from `src` to `v`, in travel order. */
    def arcsTo(src: Int, v: Int): List[Int] = {
      var path = List.empty[Int]
      var cur = v
      while (cur != src) { path = predArc(cur) :: path; cur = predVertex(cur) }
      path
    }
  }

  /** Best-first search from `src` over `n` vertices. Arc `a` in `arcs(u)`
    * leads to `head(a)` at `cost(u, a)`; the queue key is distance plus
    * `h` (Dijkstra when `h` is 0, A* when it is a lower bound). Stops when
    * `target` is popped. A vertex farther than `bound` is settled but not
    * expanded, so a vertex one arc past the bound keeps its tentative
    * distance and everything farther stays +inf.
    */
  private def search(
      n: Int,
      src: Int,
      arcs: Int => Array[Int],
      head: Int => Int,
      cost: (Int, Int) => Double,
      h: Int => Double = _ => 0.0,
      target: Int = -1,
      bound: Double = Inf,
  ): Search = {
    val s = new Search(n)
    s.dist(src) = 0.0
    val pq = new PriorityQueue[(Double, Int)](11,
      (a: (Double, Int), b: (Double, Int)) => java.lang.Double.compare(a._1, b._1))
    pq.add((h(src), src))
    var reached = false
    while (!reached && !pq.isEmpty) {
      val u = pq.poll()._2
      if (u == target) reached = true
      else if (!s.closed(u)) {
        s.closed(u) = true
        val du = s.dist(u)
        if (du <= bound) {
          val out = arcs(u)
          var i = 0
          while (i < out.length) {
            val a = out(i)
            val v = head(a)
            val nd = du + cost(u, a)
            if (nd < s.dist(v)) {
              s.dist(v) = nd; s.predVertex(v) = u; s.predArc(v) = a
              pq.add((nd + h(v), v))
            }
            i += 1
          }
        }
      }
    }
    s
  }

  /** `search` on the node graph with segment lengths as costs. */
  private def nodeSearch(net: RoadNetwork, src: Int, target: Int = -1, bound: Double = Inf): Search = {
    // A* towards `target` with the planar straight-line heuristic
    // (admissible: every segment's length is its chord).
    val h: Int => Double =
      if (target < 0) _ => 0.0 else { val goal = net.nodes(target); v => net.nodes(v).dist(goal) }
    search(net.numNodes, src, net.outSegments(_), a => net.segments(a).to,
      (_, a) => net.segments(a).lengthM, h, target, bound)
  }

  /** Node-level Dijkstra from `src`; nodes farther than `maxDist` are not
    * expanded, so their successors keep a tentative distance and nodes
    * beyond those keep +inf. O((m + n) log n).
    */
  def dijkstra(net: RoadNetwork, src: Int, maxDist: Double = Inf): Array[Double] =
    nodeSearch(net, src, bound = maxDist).dist

  /** A* shortest path length from node `src` to node `dst`; +inf if
    * unreachable.
    */
  def aStar(net: RoadNetwork, src: Int, dst: Int): Double = nodeSearch(net, src, dst).dist(dst)

  /** Shortest node path from `src` to `dst` as the list of traversed
    * segment ids. None when unreachable.
    */
  def nodePathSegments(net: RoadNetwork, src: Int, dst: Int): Option[List[Int]] = {
    val s = nodeSearch(net, src, dst)
    if (s.dist(dst) < Inf) Some(s.arcsTo(src, dst)) else None
  }

  /** Least-cost route in the segment graph from segment `from` to segment
    * `to` with per-transition cost `cost(curSeg, nextSeg)` (floored at
    * 1e-9): the segments AFTER `from` up to and including `to`, empty if
    * `from == to`. None when `to` is unreachable.
    */
  def segmentSearch(net: RoadNetwork, from: Int, to: Int, cost: (Int, Int) => Double): Option[List[Int]] = {
    val s = search(net.numSegments, from, net.nextSegments, a => a,
      (u, a) => math.max(1e-9, cost(u, a)), target = to)
    if (s.dist(to) < Inf) Some(s.arcsTo(from, to)) else None
  }

  /** Memoising node-to-node distance helper for metric computation. One
    * instance per evaluation task; NOT thread-safe.
    */
  final class DistCache(net: RoadNetwork) {
    private val cache = mutable.HashMap.empty[Long, Double]
    def nodeDist(a: Int, b: Int): Double =
      cache.getOrElseUpdate((a.toLong << 32) | (b.toLong & 0xffffffffL), aStar(net, a, b))

    /** Directed travel distance from point (segA, rA) to point (segB, rB)
      * along the network — the HMM transition distance (a wrong-direction
      * candidate forces a costly loop, which is exactly the signal that
      * disambiguates direction).
      */
    def directedDist(segA: Int, rA: Double, segB: Int, rB: Double): Double = {
      val sa = net.segments(segA); val sb = net.segments(segB)
      if (segA == segB && rB >= rA) (rB - rA) * sa.lengthM
      else (1 - rA) * sa.lengthM + nodeDist(sa.to, sb.from) + rB * sb.lengthM
    }

    /** Road-network distance between map-matched points (segA, rA) and
      * (segB, rB): the shorter directed travel distance of A->B and B->A.
      * Falls back to the planar straight-line distance if neither direction
      * is reachable (disconnected components cannot occur with the generator
      * but defensive anyway).
      */
    def matchedDist(segA: Int, rA: Double, segB: Int, rB: Double): Double = {
      if (segA == segB) return math.abs(rA - rB) * net.segments(segA).lengthM
      val d = math.min(directedDist(segA, rA, segB, rB), directedDist(segB, rB, segA, rA))
      if (d.isInfinite) net.pointAt(segA, rA).dist(net.pointAt(segB, rB)) else d
    }
  }
}
