package repro.recovery

import repro.geo.XY
import repro.mm.MapMatcher
import repro.traj.{GpsPoint, MatchedRoute, Recovered, Traj}
import scala.collection.mutable

/** A trajectory-recovery method: from the sparse observed points of `t`,
  * produce the map-matched epsilon-sampling trajectory (paper Definition 7).
  * The output is index-aligned with `t.dense` (timestamps are shared), so
  * metrics compare position i to position i.
  */
trait Recoverer extends Serializable {
  def name: String
  def recover(t: Traj): Recovered
}

/** A recoverer that works along a map matcher's output (Algorithm 2 takes
  * MMA's route as its input): TRMMA and Linear. `recover(t, mr)` reads
  * only the given `mr`, so one pass of `matcher` over a test set can feed
  * every recoverer built on it.
  */
trait RouteRecoverer extends Recoverer {
  def matcher: MapMatcher

  /** Recover `t` along `mr`, `matcher`'s output for `t` or its equal. */
  def recover(t: Traj, mr: MatchedRoute): Recovered

  final def recover(t: Traj): Recovered = recover(t, matcher.matchTraj(t))
}

/** The dense epsilon-timeline a recoverer fills: slot j has timestamp
  * `times(j)` and lies at or after sparse point `anchor(j)`, in the gap
  * before the next one. The slot of each sparse point is observed.
  */
final class SlotTimeline(val times: Array[Double], val anchor: Array[Int]) {
  def length: Int = times.length
  def observed(j: Int): Boolean = j == 0 || anchor(j) != anchor(j - 1)
}

object Recoverer {
  /** Number of missing points between consecutive observed timestamps at
    * target rate `epsilon` (Algorithm 2 line 9, with exact-multiple
    * timestamps this is the true gap size).
    */
  def gapCount(tPrev: Double, tNext: Double, epsilon: Double): Int =
    math.max(0, math.round((tNext - tPrev) / epsilon).toInt - 1)

  /** The timeline from observable timestamps only: every sparse point `p`,
    * then `gapCount` missing slots at `p.t + g * epsilon`.
    */
  def slotTimeline(t: Traj, epsilon: Double): SlotTimeline = {
    val times = mutable.ArrayBuffer.empty[Double]
    val anchor = mutable.ArrayBuffer.empty[Int]
    var i = 0
    while (i < t.sparse.length) {
      val p = t.sparse(i)
      times += p.t; anchor += i
      if (i + 1 < t.sparse.length) {
        val gaps = gapCount(p.t, t.sparse(i + 1).t, epsilon)
        var g = 1
        while (g <= gaps) { times += p.t + g * epsilon; anchor += i; g += 1 }
      }
      i += 1
    }
    new SlotTimeline(times.toArray, anchor.toArray)
  }

  /** Index of the last observed point before time `tt` (the first point
    * if none), walking forward from index `from`, which is not past it.
    */
  private def lastBefore(t: Traj, tt: Double, from: Int): Int = {
    var i = from
    while (i + 1 < t.sparse.length && t.sparse(i + 1).t < tt) i += 1
    i
  }

  /** `lastBefore` of each of `times`, in one forward walk: each time's walk
    * starts at the previous time's point unless the times decrease.
    */
  def lastBefore(t: Traj, times: Array[Double]): Array[Int] = {
    val out = new Array[Int](times.length)
    var j = 0
    while (j < times.length) {
      out(j) = lastBefore(t, times(j), if (j > 0 && times(j) >= times(j - 1)) out(j - 1) else 0)
      j += 1
    }
    out
  }

  /** The observed points bracketing a time whose `lastBefore` is `i`: that
    * point and its successor (itself at the end).
    */
  def bracket(t: Traj, i: Int): (GpsPoint, GpsPoint) =
    (t.sparse(i), t.sparse(math.min(i + 1, t.sparse.length - 1)))

  /** Free-space position at time `tt`, linearly interpolated between the
    * observed points bracketing it; `i` is `tt`'s `lastBefore` index.
    */
  def interpXY(t: Traj, tt: Double, i: Int): XY = {
    val (a, b) = bracket(t, i)
    val f = if (b.t - a.t < 1e-9) 0.0 else (tt - a.t) / (b.t - a.t)
    XY(a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)
  }
}
