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
    val arc = new RouteArc(net, mr.route)
    // Matched point of each sparse point: segment, ratio and arc position.
    val segs = mr.perPoint
    val ratios = Array.tabulate(segs.length)(i => net.projectRatio(t.sparse(i).xy, segs(i)))
    val pos = arc.walk(segs)
    val arcPos = Array.tabulate(segs.length)(i => arc.arcOf(pos(i), ratios(i)))
    val tl = Recoverer.slotTimeline(t, epsilon)
    val out = Array.tabulate(tl.length) { j =>
      val i = tl.anchor(j)
      if (tl.observed(j)) MatchedPoint(segs(i), ratios(i), tl.times(j))
      else {
        val a0 = arcPos(i); val a1 = math.max(arcPos(i + 1), a0)
        val (p, r) = arc.atArc(a0 + tl.gapFrac(j) * (a1 - a0))
        MatchedPoint(mr.route(p), r, tl.times(j))
      }
    }
    Recovered(t.id, out)
  }
}
