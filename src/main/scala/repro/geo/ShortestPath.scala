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

  /** The factor s < 1 on the goal-directed searches' heuristic. Every arc
    * costs at least its chord c, the distance between the positions of its
    * tail and head: on the node graph the cost is the segment's length,
    * which `RoadNetwork` requires to be at least the chord, and on the
    * segment graph it is the next segment's length plus a non-negative
    * planning term. A heuristic s · f with f 1-Lipschitz in the position
    * therefore satisfies h(u) ≤ cost(u→v) + h(v) − (1 − s) · cost(u→v):
    * each arc leaves a margin of 1e-6 of its cost, about 9e-5 m on a 90 m
    * segment, where the rounding of a key is about 1e-11 m at 10 km. So a
    * vertex pops only after every vertex on Dijkstra's path to it, at the
    * double Dijkstra gives it. It is not a tuning knob: any s that keeps
    * that margin above the rounding by orders of magnitude prunes alike.
    */
  private final val Slack = 1 - 1e-6

  /** The heuristic h(v) = scale · max(0, |pos(v) − centre| − radius): the
    * scaled distance from v's position to a circle, 1-Lipschitz before
    * scaling.
    */
  private final class Guide(pos: Array[XY], centre: XY, radius: Double, scale: Double) {
    def apply(v: Int): Double = scale * math.max(0.0, pos(v).dist(centre) - radius)
  }

  /** Per-vertex state of a search, reused by every search of one thread
    * over `n` vertices. Between searches `dist` is +inf and `closed` and
    * `wanted` are false everywhere; `reset` restores that over the vertices
    * the last search reached and the targets it was given. `h` and `tied`
    * are written when a vertex is first reached, so they hold for exactly
    * the vertices in `reached`.
    */
  private final class Search(n: Int) {
    val dist: Array[Double] = Array.fill(n)(Inf)
    val predVertex = new Array[Int](n)
    val predArc = new Array[Int](n)
    val closed = new Array[Boolean](n)
    val wanted = new Array[Boolean](n)
    /** The heuristic of each reached vertex, computed once; 0 with no guide. */
    val h = new Array[Double](n)
    /** Whether a relaxation has reached the vertex at exactly its current distance. */
    val tied = new Array[Boolean](n)
    val heap = new Heap
    var guide: Guide = null
    var inUse = false
    private val reached = new Array[Int](n) // each vertex whose dist is finite, once
    private var numReached = 0

    /** Sets `dist(v)`, reached from `u` over `arc`, a strict improvement. */
    def relax(v: Int, d: Double, u: Int, arc: Int): Unit = {
      if (dist(v) == Inf) {
        reached(numReached) = v; numReached += 1
        h(v) = if (guide == null) 0.0 else guide(v)
      }
      dist(v) = d; predVertex(v) = u; predArc(v) = arc; tied(v) = false
    }

    def reset(targets: Array[Int]): Unit = {
      var i = 0
      while (i < numReached) { val v = reached(i); dist(v) = Inf; closed(v) = false; i += 1 }
      numReached = 0
      heap.clear()
      guide = null
      targets.foreach(wanted(_) = false)
    }

    /** Arcs of the found path from `src` to `v`, in travel order. */
    def arcsTo(src: Int, v: Int): List[Int] = {
      var path = List.empty[Int]
      var cur = v
      while (cur != src) { path = predArc(cur) :: path; cur = predVertex(cur) }
      path
    }

    /** Whether a vertex after `src` on the found path to `v` is tied. */
    def tiedOnPath(src: Int, v: Int): Boolean = {
      var cur = v
      while (cur != src && dist(cur) < Inf) { if (tied(cur)) return true; cur = predVertex(cur) }
      false
    }
  }

  /** This thread's workspaces, by vertex count. */
  private val workspaces = ThreadLocal.withInitial[mutable.LongMap[Search]](() => mutable.LongMap.empty)

  /** Best-first search from `src` over `n` vertices, on this thread's
    * workspace for `n`; returns `read` of the finished search, which must
    * copy what it keeps: the workspace is reset for the next search. The
    * i-th arc out of vertex `u` is `arcs(u)(i)`; it leads to `heads(u)(i)`
    * at cost `costs(u)(i)`, at least the chord between the positions the
    * `guide` reads. The queue key is the distance plus `guide`'s heuristic
    * (0 without one). Stops once every vertex in `targets` has been popped.
    * A vertex farther than `bound` is settled but not expanded, so a vertex
    * one arc past the bound keeps its tentative distance and everything
    * farther stays +inf.
    *
    * With a guide scaled by `Slack`, every distance the search returns is
    * the search's without a guide (Dijkstra's), tentative and +inf ones
    * included. Which of several predecessors reaching a vertex at its final
    * distance is kept depends on the pop order, so such a vertex is marked
    * `tied`; a path that passes no tied vertex is Dijkstra's. `aStar` and
    * `nodePathSegments` run A* proper (scale 1, the point goal), whose pop
    * order `ReferenceSearch` pins.
    */
  private def search[A](
      n: Int,
      src: Int,
      arcs: Array[Array[Int]],
      heads: Array[Array[Int]],
      costs: Array[Array[Double]],
      targets: Array[Int],
      bound: Double = Inf,
      guide: Guide = null,
  )(read: Search => A): A = {
    val s = workspaces.get.getOrElseUpdate(n, new Search(n))
    if (s.inUse) throw new IllegalStateException(
      s"ShortestPath: a search over $n vertices started while another one on this thread is running")
    s.inUse = true
    try {
      var left = 0
      targets.foreach(t => if (!s.wanted(t)) { s.wanted(t) = true; left += 1 })
      s.guide = guide
      s.relax(src, 0.0, -1, -1)
      val heap = s.heap
      heap.add(s.h(src), src)
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
                val dv = s.dist(v)
                if (nd < dv) {
                  s.relax(v, nd, u, arcs(u)(i))
                  heap.add(nd + s.h(v), v)
                } else if (nd == dv) s.tied(v) = true
                i += 1
              }
            }
          }
        }
      }
      read(s)
    } finally { s.inUse = false; s.reset(targets) }
  }

  /** `search` on the node graph with segment lengths as costs. */
  private def nodeSearch[A](net: RoadNetwork, src: Int, targets: Array[Int], bound: Double = Inf,
      guide: Guide = null)(read: Search => A): A =
    search(net.numNodes, src, net.outSegments, net.outHeads, net.outLengths, targets, bound, guide)(read)

  /** A* proper towards node `dst`: the straight-line distance, unscaled. */
  private def towards(net: RoadNetwork, dst: Int): Guide = new Guide(net.nodes, net.nodes(dst), 0.0, 1.0)

  /** Node-level Dijkstra from `src` read at `targets` (in their order), stopped
    * once all are settled. Nodes past `maxDist` are not expanded: a target is
    * exact within it, tentative one segment past it, and +inf beyond. The
    * search is directed at the targets' bounding circle (centre: the mean
    * target position; radius: the farthest target from it), which changes
    * which nodes it settles but not a bit of what it returns.
    */
  def dijkstraTo(net: RoadNetwork, src: Int, maxDist: Double, targets: Array[Int]): Array[Double] = {
    val m = targets.length
    var cx = 0.0; var cy = 0.0; var i = 0
    while (i < m) { val p = net.nodes(targets(i)); cx += p.x; cy += p.y; i += 1 }
    val centre = XY(cx / m, cy / m)
    var r = 0.0; i = 0
    while (i < m) { r = math.max(r, net.nodes(targets(i)).dist(centre)); i += 1 }
    val guide = if (m == 0) null else new Guide(net.nodes, centre, r, Slack)
    nodeSearch(net, src, targets, maxDist, guide)(s => targets.map(s.dist(_)))
  }

  /** A* shortest path length from node `src` to node `dst`; +inf if
    * unreachable.
    */
  def aStar(net: RoadNetwork, src: Int, dst: Int): Double =
    nodeSearch(net, src, Array(dst), guide = towards(net, dst))(_.dist(dst))

  /** Shortest node path from `src` to `dst` as the list of traversed
    * segment ids. None when unreachable.
    */
  def nodePathSegments(net: RoadNetwork, src: Int, dst: Int): Option[List[Int]] =
    nodeSearch(net, src, Array(dst), guide = towards(net, dst)) { s =>
      if (s.dist(dst) < Inf) Some(s.arcsTo(src, dst)) else None
    }

  /** Least-cost route in the segment graph from segment `from` to segment
    * `to`, where moving from `cur` to its successor `net.nextSegments(cur)(i)`
    * costs `costs(cur)(i)` (at least the length of the successor): the
    * segments AFTER `from` up to and including `to`, empty if `from == to`.
    * None when `to` is unreachable. The route is Dijkstra's: the search is
    * directed at `to`'s exit node, and a route through a tied segment is
    * searched again without the heuristic.
    */
  def segmentSearch(net: RoadNetwork, from: Int, to: Int, costs: Array[Array[Double]]): Option[List[Int]] = {
    def route(s: Search): Option[List[Int]] = if (s.dist(to) < Inf) Some(s.arcsTo(from, to)) else None
    def run[A](guide: Guide)(read: Search => A): A =
      search(net.numSegments, from, net.successors, net.successors, costs, Array(to), guide = guide)(read)
    val guided = run(new Guide(net.exitPositions, net.exitPositions(to), 0.0, Slack)) { s =>
      if (s.tiedOnPath(from, to)) None else Some(route(s))
    }
    guided.getOrElse(run(null)(route))
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
