package repro.geo

import scala.collection.mutable

/** Shortest-path queries over a [[RoadNetwork]]: node-level Dijkstra to a
  * set of targets, point-to-point A*, segment-graph routes for the planner,
  * and the road-network distance between two map-matched points used by the
  * MAE/RMSE recovery metrics. All of them run the one best-first search
  * `search`, on the node graph (arcs are segments) or on the segment graph
  * (arcs are successor segments).
  */
object ShortestPath {

  private final val Inf = Double.PositiveInfinity

  /** Per-vertex state of a search, reused by every search of one thread
    * over `n` vertices. Between searches `dist` is +inf and `closed` and
    * `wanted` are false everywhere; `reset` restores that over the vertices
    * the last search reached and the targets it was given.
    */
  private final class Search(n: Int) {
    val dist: Array[Double] = Array.fill(n)(Inf)
    val predVertex = new Array[Int](n)
    val predArc = new Array[Int](n)
    val closed = new Array[Boolean](n)
    val wanted = new Array[Boolean](n)
    val heap = new Heap
    var inUse = false
    private val reached = new Array[Int](n) // each vertex whose dist is finite, once
    private var numReached = 0

    /** Sets `dist(v)`, reached from `u` over `arc`. */
    def relax(v: Int, d: Double, u: Int, arc: Int): Unit = {
      if (dist(v) == Inf) { reached(numReached) = v; numReached += 1 }
      dist(v) = d; predVertex(v) = u; predArc(v) = arc
    }

    def reset(targets: Array[Int]): Unit = {
      var i = 0
      while (i < numReached) { val v = reached(i); dist(v) = Inf; closed(v) = false; i += 1 }
      numReached = 0
      heap.clear()
      targets.foreach(wanted(_) = false)
    }

    /** Arcs of the found path from `src` to `v`, in travel order. */
    def arcsTo(src: Int, v: Int): List[Int] = {
      var path = List.empty[Int]
      var cur = v
      while (cur != src) { path = predArc(cur) :: path; cur = predVertex(cur) }
      path
    }
  }

  /** This thread's workspaces, by vertex count. */
  private val workspaces = ThreadLocal.withInitial[mutable.LongMap[Search]](() => mutable.LongMap.empty)

  /** Best-first search from `src` over `n` vertices, on this thread's
    * workspace for `n`; returns `read` of the finished search, which must
    * copy what it keeps: the workspace is reset for the next search. The
    * i-th arc out of vertex `u` is `arcs(u)(i)`; it leads to `heads(u)(i)`
    * at cost `costs(u)(i)`. The queue key is the distance, plus the
    * straight-line distance from `pos(v)` to `goal` when `goal` is given
    * (A*; admissible on the node graph, where every segment's length is its
    * chord). Stops once every vertex in `targets` has been popped; pops
    * come in key order, so up to then the search is a prefix of the one
    * without targets and each target's distance is the same. A vertex
    * farther than `bound` is settled but not expanded, so a vertex one arc
    * past the bound keeps its tentative distance and everything farther
    * stays +inf.
    */
  private def search[A](
      n: Int,
      src: Int,
      arcs: Array[Array[Int]],
      heads: Array[Array[Int]],
      costs: Array[Array[Double]],
      targets: Array[Int],
      bound: Double = Inf,
      pos: Array[XY] = null,
      goal: XY = null,
  )(read: Search => A): A = {
    val s = workspaces.get.getOrElseUpdate(n, new Search(n))
    if (s.inUse) throw new IllegalStateException(
      s"ShortestPath: a search over $n vertices started while another one on this thread is running")
    s.inUse = true
    try {
      var left = 0
      targets.foreach(t => if (!s.wanted(t)) { s.wanted(t) = true; left += 1 })
      s.relax(src, 0.0, -1, -1)
      val heap = s.heap
      heap.add(if (goal == null) 0.0 else pos(src).dist(goal), src)
      var done = false
      while (!done && !heap.isEmpty) {
        val u = heap.poll()
        if (!s.closed(u)) {
          if (s.wanted(u)) { left -= 1; done = left == 0 }
          if (!done) {
            s.closed(u) = true
            val du = s.dist(u)
            if (du <= bound) {
              val out = heads(u)
              val cost = costs(u)
              var i = 0
              while (i < out.length) {
                val v = out(i)
                val nd = du + cost(i)
                if (nd < s.dist(v)) {
                  s.relax(v, nd, u, arcs(u)(i))
                  heap.add(if (goal == null) nd else nd + pos(v).dist(goal), v)
                }
                i += 1
              }
            }
          }
        }
      }
      read(s)
    } finally { s.inUse = false; s.reset(targets) }
  }

  /** `search` on the node graph with segment lengths as costs, A* towards
    * `goal` when it is given.
    */
  private def nodeSearch[A](net: RoadNetwork, src: Int, targets: Array[Int], bound: Double = Inf,
      goal: XY = null)(read: Search => A): A =
    search(net.numNodes, src, net.outSegments, net.outHeads, net.outLengths, targets, bound,
      net.nodes, goal)(read)

  /** Node-level Dijkstra from `src` read at `targets` (in their order), stopped
    * once all are settled. Nodes past `maxDist` are not expanded: a target is
    * exact within it, tentative one segment past it, and +inf beyond.
    */
  def dijkstraTo(net: RoadNetwork, src: Int, maxDist: Double, targets: Array[Int]): Array[Double] =
    nodeSearch(net, src, targets, maxDist)(s => targets.map(s.dist(_)))

  /** A* shortest path length from node `src` to node `dst`; +inf if
    * unreachable.
    */
  def aStar(net: RoadNetwork, src: Int, dst: Int): Double =
    nodeSearch(net, src, Array(dst), goal = net.nodes(dst))(_.dist(dst))

  /** Shortest node path from `src` to `dst` as the list of traversed
    * segment ids. None when unreachable.
    */
  def nodePathSegments(net: RoadNetwork, src: Int, dst: Int): Option[List[Int]] =
    nodeSearch(net, src, Array(dst), goal = net.nodes(dst)) { s =>
      if (s.dist(dst) < Inf) Some(s.arcsTo(src, dst)) else None
    }

  /** Least-cost route in the segment graph from segment `from` to segment
    * `to`, where moving from `cur` to its successor `net.nextSegments(cur)(i)`
    * costs `costs(cur)(i)` (non-negative): the segments AFTER `from` up to
    * and including `to`, empty if `from == to`. None when `to` is
    * unreachable.
    */
  def segmentSearch(net: RoadNetwork, from: Int, to: Int, costs: Array[Array[Double]]): Option[List[Int]] =
    search(net.numSegments, from, net.successors, net.successors, costs, Array(to)) { s =>
      if (s.dist(to) < Inf) Some(s.arcsTo(from, to)) else None
    }

  /** Directed travel distance from point (segA, rA) to point (segB, rB)
    * along the network — the HMM transition distance (a wrong-direction
    * candidate forces a costly loop, the signal that disambiguates direction).
    * `nodeDist` is the distance from segA's exit to segB's entrance.
    */
  def directedDist(net: RoadNetwork, segA: Int, rA: Double, segB: Int, rB: Double, nodeDist: Double): Double = {
    val sa = net.segments(segA)
    if (segA == segB && rB >= rA) (rB - rA) * sa.lengthM
    else (1 - rA) * sa.lengthM + nodeDist + rB * net.segments(segB).lengthM
  }

  /** Memoising road-network distance between map-matched points, for the
    * recovery metrics. One instance per evaluation task; NOT thread-safe.
    */
  final class DistCache(net: RoadNetwork) {
    private val cache = mutable.LongMap.empty[Double]
    private def nodeDist(a: Int, b: Int): Double =
      cache.getOrElseUpdate(Geo.pairKey(a, b), aStar(net, a, b))

    /** Road-network distance between map-matched points (segA, rA) and
      * (segB, rB): the shorter directed travel distance of A->B and B->A.
      * Falls back to the planar straight-line distance if neither direction
      * is reachable (disconnected components cannot occur with the generator
      * but defensive anyway).
      */
    def matchedDist(segA: Int, rA: Double, segB: Int, rB: Double): Double = {
      if (segA == segB) return math.abs(rA - rB) * net.segments(segA).lengthM
      val (a, b) = (net.segments(segA), net.segments(segB))
      val d = math.min(directedDist(net, segA, rA, segB, rB, nodeDist(a.to, b.from)),
        directedDist(net, segB, rB, segA, rA, nodeDist(b.to, a.from)))
      if (d.isInfinite) net.pointAt(segA, rA).dist(net.pointAt(segB, rB)) else d
    }
  }
}
