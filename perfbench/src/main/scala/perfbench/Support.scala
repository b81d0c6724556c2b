package perfbench

import java.security.MessageDigest
import repro.geo.RoadNetwork
import repro.traj.{MatchedRoute, Recovered, Traj}

/** SHA-256 over segment ids, ratios and timestamps of method outputs. */
final class Digest {
  private val md = MessageDigest.getInstance("SHA-256")
  private val buf = java.nio.ByteBuffer.allocate(8)

  def long(v: Long): Unit = { buf.clear(); buf.putLong(v); md.update(buf.array()) }
  def ints(a: Array[Int]): Unit = { long(a.length.toLong); a.foreach(v => long(v.toLong)) }
  def doubles(a: Array[Double]): Unit = {
    long(a.length.toLong); a.foreach(v => long(java.lang.Double.doubleToLongBits(v)))
  }

  def output(out: AnyRef): Unit = out match {
    case m: MatchedRoute => long(m.id); ints(m.perPoint); ints(m.route)
    case r: Recovered =>
      long(r.id); long(r.points.length.toLong)
      r.points.foreach { p =>
        long(p.seg.toLong)
        long(java.lang.Double.doubleToLongBits(p.r))
        long(java.lang.Double.doubleToLongBits(p.t))
      }
  }

  def hex: String = md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
}

/** Output invariants of map matchers and recoverers (ROADMAP north star). */
object Checks {

  private def validSeg(net: RoadNetwork, s: Int) = s >= 0 && s < net.numSegments

  /** None when `out` is a valid output for `t`, else the broken invariant. */
  def apply(net: RoadNetwork, t: Traj, out: AnyRef): Option[String] = out match {
    case m: MatchedRoute =>
      if (m.id != t.id) Some("id")
      else if (m.perPoint.length != t.sparse.length) Some("per-point length != sparse length")
      else if (!m.perPoint.forall(validSeg(net, _))) Some("per-point segment id")
      else if (m.route.isEmpty || !m.route.forall(validSeg(net, _))) Some("route")
      else None
    case r: Recovered =>
      if (r.id != t.id) Some("id")
      else if (r.points.length != t.dense.length) Some("not aligned with dense")
      else r.points.indices.collectFirst {
        case i if !validSeg(net, r.points(i).seg) => "segment id"
        case i if !(r.points(i).r >= 0 && r.points(i).r < 1) => "ratio outside [0,1)"
        case i if !java.lang.Double.isFinite(r.points(i).t) ||
          math.abs(r.points(i).t - t.dense(i).t) > 1e-6 => "timestamp not aligned with dense"
      }
    case other => Some(s"unexpected output ${other.getClass.getName}")
  }

  def sameOutput(a: AnyRef, b: AnyRef): Boolean = (a, b) match {
    case (x: MatchedRoute, y: MatchedRoute) =>
      x.id == y.id && x.perPoint.sameElements(y.perPoint) && x.route.sameElements(y.route)
    case (x: Recovered, y: Recovered) => x.id == y.id && x.points.sameElements(y.points)
    case _ => false
  }
}

/** Operations attempted and failed, with the first few failure reasons. */
final class Tally {
  var attempted = 0L
  var failed = 0L
  private val reasons = scala.collection.mutable.ArrayBuffer.empty[String]

  def ok(): Unit = attempted += 1
  def fail(what: String): Unit = {
    attempted += 1; failed += 1
    if (reasons.length < 10) reasons += what
  }
  /** Run `op`, counting it; a thrown exception is a failure. */
  def attempt[A](what: String)(op: => A): Option[A] =
    try Some(op) catch { case e: Exception => fail(s"$what: $e"); None }

  def report(): Seq[String] = reasons.toSeq
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs.toArray, 0.5)

  /** Linear-interpolated quantile `q` in [0,1]. */
  def quantile(xs: Array[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of nothing")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def mean(xs: Seq[Double]): Double = xs.sum / xs.length
}

/** A metric value with its unit, printed in the result line. */
final case class Metric(value: Double, unit: String)

object Json {
  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def num(v: Double): String = {
    require(java.lang.Double.isFinite(v), s"non-finite metric value $v")
    java.lang.Double.toString(v)
  }

  def result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)]): String =
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""" +
      metrics.map { case (k, m) => s"""${str(k)}: {"value": ${num(m.value)}, "unit": ${str(m.unit)}}""" }
        .mkString(", ") + "}}"

  def obj(fields: Seq[(String, Any)]): String =
    fields.map {
      case (k, v: String) => s"${str(k)}: ${str(v)}"
      case (k, v: Double) => s"${str(k)}: ${num(v)}"
      case (k, v) => s"${str(k)}: $v"
    }.mkString("{", ", ", "}")
}
