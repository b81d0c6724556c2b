package repro.core

import repro.mm.MapMatcher
import repro.recovery.{Recoverer, RouteRecoverer}
import repro.traj.{MatchedRoute, Recovered, Traj}

/** End-to-end TRMMA (Algorithm 2): take the map matcher's output (MMA by
  * default; HMM / Nearest for the Table IV ablations), project the sparse
  * points onto their matched segments, then recover every missing
  * epsilon-slot with the trained [[TrmmaModel]] restricted to the route's
  * segments.
  */
final class Trmma(
    val model: TrmmaModel,
    val matcher: MapMatcher,
    val epsilon: Double,
    override val name: String = "TRMMA",
) extends RouteRecoverer {

  def recover(t: Traj, mr: MatchedRoute): Recovered = {
    val (sample, times) = prepare(t, mr)
    Recovered(t.id, model.decode(sample, times))
  }

  /** The decoder's input for `t` matched as `mr` (projected, on the ε-slot
    * timeline) and the slot timestamps.
    */
  def prepare(t: Traj, mr: MatchedRoute): (TrmmaSample, Array[Double]) = {
    val segs = mr.perPoint
    val tl = Recoverer.slotTimeline(t, epsilon)
    val observed = Array.tabulate(tl.length)(tl.observed)
    // Missing slots carry their gap's left anchor as a placeholder; decode
    // overwrites them.
    val slotSeg = tl.anchor.map(i => segs(i))
    val slotR = Array.tabulate(tl.length) { j =>
      val i = tl.anchor(j)
      if (observed(j)) model.projRatio(t.sparse(i).xy, segs(i)) else 0.0
    }
    (model.prepare(t, segs, mr.route, slotSeg, slotR, observed), tl.times)
  }
}
