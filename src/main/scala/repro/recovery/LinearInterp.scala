package repro.recovery

import repro.geo.RoadNetwork
import repro.mm.MapMatcher
import repro.traj.{MatchedPoint, MatchedRoute, Recovered, Traj}

/** Baseline `Linear` (paper VI-A) and the ablation combinations
  * `MMA+linear` / `Nearest+linear` (Table IV): take the sparse points as
  * `matcher` matched them, then fill every missing epsilon-slot by
  * constant-speed linear interpolation of arc length along the route.
  *
  * No learning: exactly right when vehicles move at constant speed, and
  * systematically wrong across road-class speed changes — the behaviour the
  * paper contrasts learned recovery against.
  */
final class LinearInterp(
    net: RoadNetwork,
    val matcher: MapMatcher,
    epsilon: Double,
    override val name: String,
) extends RouteRecoverer {

  def recover(t: Traj, mr: MatchedRoute): Recovered = {
    val route = mr.route
    val arc = new RouteArc(net, route)
    // Matched point of each sparse point: (route position, ratio).
    val anchors = mr.perPoint.zipWithIndex.map { case (seg, i) =>
      (seg, net.projectRatio(t.sparse(i).xy, seg))
    }
    var pos = 0
    val arcPos = anchors.map { case (seg, r) =>
      val p = arc.posOf(seg, pos)
      if (p >= 0) pos = p
      arc.arcOf(math.max(0, p), r)
    }
    val tl = Recoverer.slotTimeline(t, epsilon)
    val first = (0 until tl.length).filter(tl.observed) // slot of each sparse point
    val out = Array.tabulate(tl.length) { j =>
      val i = tl.anchor(j)
      val g = j - first(i)
      if (g == 0) MatchedPoint(anchors(i)._1, anchors(i)._2, tl.times(j))
      else {
        // Slot g of the gap's `first(i + 1) - first(i) - 1` missing slots.
        val f = g.toDouble / (first(i + 1) - first(i))
        val a0 = arcPos(i); val a1 = math.max(arcPos(i + 1), a0)
        val (p, r) = arc.atArc(a0 + f * (a1 - a0))
        MatchedPoint(route(p), r, tl.times(j))
      }
    }
    Recovered(t.id, out)
  }
}
