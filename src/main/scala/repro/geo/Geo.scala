package repro.geo

/** Planar coordinate in metres, in a city's local frame. */
final case class XY(x: Double, y: Double) extends Serializable {
  def dist(o: XY): Double = math.hypot(x - o.x, y - o.y)
  def -(o: XY): XY = XY(x - o.x, y - o.y)
  def +(o: XY): XY = XY(x + o.x, y + o.y)
  def dot(o: XY): Double = x * o.x + y * o.y
  def norm: Double = math.hypot(x, y)
}

/** Planar geometry helpers: every network and trajectory is generated in
  * metres, so no work needs a map projection.
  */
object Geo {

  /** Parameter, clamped to [0, 1], of the orthogonal projection of
    * (px, py) onto segment (ax, ay) -> (bx, by).
    */
  private[geo] def projParam(px: Double, py: Double, ax: Double, ay: Double, bx: Double, by: Double): Double = {
    val abx = bx - ax; val aby = by - ay
    val len2 = abx * abx + aby * aby
    if (len2 <= 0) 0.0 else math.min(1.0, math.max(0.0, ((px - ax) * abx + (py - ay) * aby) / len2))
  }

  /** Position ratio (Definition 5: r in [0, 1)) of the orthogonal projection
    * of `p` onto segment `a -> b`.
    */
  def projectRatio(p: XY, a: XY, b: XY): Double =
    math.min(0.999999, projParam(p.x, p.y, a.x, a.y, b.x, b.y))

  /** Distance in metres from `p` to segment `a -> b`. */
  def pointSegDist(p: XY, a: XY, b: XY): Double = {
    val t = projParam(p.x, p.y, a.x, a.y, b.x, b.y)
    math.hypot(p.x - (a.x + (b.x - a.x) * t), p.y - (a.y + (b.y - a.y) * t))
  }

  /** Point at ratio `r` along segment `a -> b`. */
  def lerp(a: XY, b: XY, r: Double): XY =
    XY(a.x + (b.x - a.x) * r, a.y + (b.y - a.y) * r)

  /** A `Long` key for the ordered pair of ids (a, b). */
  def pairKey(a: Int, b: Int): Long = (a.toLong << 32) | (b.toLong & 0xffffffffL)

  /** Cosine similarity of two planar vectors given their norms `uNorm` =
    * `u.norm` and `vNorm` = `v.norm`; 0 when either is degenerate.
    */
  def cosine(u: XY, uNorm: Double, v: XY, vNorm: Double): Double = {
    val d = uNorm * vNorm
    if (d < 1e-12) 0.0 else math.max(-1.0, math.min(1.0, u.dot(v) / d))
  }
}
