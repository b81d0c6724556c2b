package repro.mm

import repro.geo.{RoadNetwork, RoutePlanner}
import repro.traj.Traj

/** FMM-style HMM map matching (paper ref [28], after Newson & Krumm).
  *
  * States per GPS point are its top-`K` nearest candidate segments.
  * Emission: Gaussian in the perpendicular distance (sigma = GPS noise).
  * Transition: exponential in the absolute difference between the road-
  * network distance of the projected points and their straight-line
  * distance (the Newson-Krumm "route plausibility" term). Decoded with
  * Viterbi; the resulting per-point segments are stitched by the shared
  * planner.
  *
  * Also reused to label `TRMMA-HMM` in the Table IV ablation.
  */
final class HmmMatcher(net: RoadNetwork, protected val planner: RoutePlanner) extends PointMatcher {
  val name = "FMM"

  def matchPoints(t: Traj): Array[Int] = HmmMatcher.viterbi(net, t, (_, _, _) => 0.0)
}

/** The Newson–Krumm Viterbi and its constants, shared by FMM and LHMM. */
object HmmMatcher {

  /** Candidate segments per GPS point. */
  private[mm] final val K = 8
  /** Emission sigma (m): the GPS noise. */
  private final val SigmaM = 5.0
  /** Transition scale (m) of |network distance - straight-line distance|. */
  private final val BetaM = 120.0

  /** Newson–Krumm Viterbi over the [[Lattice]] of each point's top-`K`
    * candidate segments, its searches unbounded: Gaussian emission in the
    * perpendicular distance `d` plus `emitBonus(i, sid, d)`, transitions
    * exponential in |directed network distance - straight-line distance|.
    * Returns the decoded segment of every sparse point.
    */
  private[mm] def viterbi(net: RoadNetwork, t: Traj, emitBonus: (Int, Int, Double) => Double): Array[Int] = {
    val lat = new Lattice(net, t, K, Double.PositiveInfinity)
    val (pts, cands) = (lat.pts, lat.ids)
    val emit = Array.tabulate(pts.length) { i =>
      Array.tabulate(cands(i).length) { j =>
        val d = lat.dists(i)(j)
        -d * d / (2 * SigmaM * SigmaM) + emitBonus(i, cands(i)(j), d)
      }
    }
    val score = Array.tabulate(pts.length)(i => new Array[Double](cands(i).length))
    val back = Array.tabulate(pts.length)(i => new Array[Int](cands(i).length))
    score(0) = emit(0).clone()
    var i = 1
    while (i < pts.length) {
      val gc = pts(i - 1).dist(pts(i))
      var j = 0
      while (j < cands(i).length) {
        var best = Double.NegativeInfinity
        var bestK = 0
        var kk = 0
        while (kk < cands(i - 1).length) {
          val s = score(i - 1)(kk) - math.abs(lat.travel(i - 1, kk, j) - gc) / BetaM
          if (s > best) { best = s; bestK = kk }
          kk += 1
        }
        score(i)(j) = best + emit(i)(j)
        back(i)(j) = bestK
        j += 1
      }
      i += 1
    }
    val out = new Array[Int](pts.length)
    var cur = score(pts.length - 1).indices.maxBy(score(pts.length - 1))
    i = pts.length - 1
    while (i >= 0) { out(i) = cands(i)(cur); if (i > 0) cur = back(i)(cur); i -= 1 }
    out
  }
}
