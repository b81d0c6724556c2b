package repro.geo

import java.util.PriorityQueue

/** The best-first search as it was written on a boxed
  * `PriorityQueue[(Double, Int)]`, kept as the reference for the pop order
  * of `ShortestPath`'s primitive heap: on ties, which predecessor wins
  * decides the returned path.
  */
object ReferenceSearch {

  private final val Inf = Double.PositiveInfinity

  final class Search(n: Int) {
    val dist: Array[Double] = Array.fill(n)(Inf)
    val predVertex = new Array[Int](n)
    val predArc = new Array[Int](n)
    val closed = new Array[Boolean](n)

    def arcsTo(src: Int, v: Int): List[Int] = {
      var path = List.empty[Int]
      var cur = v
      while (cur != src) { path = predArc(cur) :: path; cur = predVertex(cur) }
      path
    }
  }

  def search(
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

  private def nodeSearch(net: RoadNetwork, src: Int, target: Int = -1, bound: Double = Inf): Search = {
    val h: Int => Double =
      if (target < 0) _ => 0.0 else { val goal = net.nodes(target); v => net.nodes(v).dist(goal) }
    search(net.numNodes, src, net.outSegments(_), a => net.segments(a).to,
      (_, a) => net.segments(a).lengthM, h, target, bound)
  }

  def dijkstra(net: RoadNetwork, src: Int, maxDist: Double = Inf): Array[Double] =
    nodeSearch(net, src, bound = maxDist).dist

  def aStar(net: RoadNetwork, src: Int, dst: Int): Double = nodeSearch(net, src, dst).dist(dst)

  def nodePathSegments(net: RoadNetwork, src: Int, dst: Int): Option[List[Int]] = {
    val s = nodeSearch(net, src, dst)
    if (s.dist(dst) < Inf) Some(s.arcsTo(src, dst)) else None
  }

  def segmentSearch(net: RoadNetwork, from: Int, to: Int, cost: (Int, Int) => Double): Option[List[Int]] = {
    val s = search(net.numSegments, from, net.nextSegments, a => a,
      (u, a) => math.max(1e-9, cost(u, a)), target = to)
    if (s.dist(to) < Inf) Some(s.arcsTo(from, to)) else None
  }
}
