package repro.recovery

import repro.geo.RoadNetwork

/** Arc-length parameterisation of a route: maps between (segment position,
  * ratio) and cumulative distance along the route, and walks segments
  * monotonically along it. Used by the Linear baseline (constant-speed
  * interpolation), TRMMA's route and slot features, and the route lengths
  * of Table II.
  */
final class RouteArc(net: RoadNetwork, val route: Array[Int]) extends Serializable {
  /** Cumulative length before each route position. */
  val cum: Array[Double] = {
    val c = new Array[Double](route.length + 1)
    var i = 0
    while (i < route.length) { c(i + 1) = c(i) + net.segments(route(i)).lengthM; i += 1 }
    c
  }
  def totalLen: Double = cum(route.length)

  /** Arc position of ratio `r` on the segment at route position `pos`. */
  def arcOf(pos: Int, r: Double): Double =
    cum(pos) + r * net.segments(route(pos)).lengthM

  /** Map an arc distance back to (route position, ratio), clamped. */
  def atArc(arc: Double): (Int, Double) = {
    val a = math.max(0.0, math.min(totalLen - 1e-9, arc))
    var lo = 0; var hi = route.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) / 2
      if (cum(mid) <= a) lo = mid else hi = mid - 1
    }
    val len = net.segments(route(lo)).lengthM
    (lo, math.min(0.999999, (a - cum(lo)) / math.max(1e-9, len)))
  }

  /** Route position of each of `segs` in one forward walk from position 0:
    * the first position of its segment at or after the previous one's, or
    * the previous one's if the segment is not there.
    */
  def walk(segs: Array[Int]): Array[Int] = {
    var cur = 0
    segs.map { seg =>
      val p = RouteArc.posOf(route, seg, cur)
      if (p >= 0) cur = p
      cur
    }
  }
}

object RouteArc {
  /** First position of segment `seg` in `route` at/after `from`, or -1. */
  def posOf(route: Array[Int], seg: Int, from: Int): Int = {
    var p = math.max(0, from)
    while (p < route.length && route(p) != seg) p += 1
    if (p < route.length) p else -1
  }
}
